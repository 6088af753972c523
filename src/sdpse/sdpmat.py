"""Coefficient matrices of the lifted formulation, held as one term table.

Every scalar measurement on the network is a linear functional of the lifted
state W = X X^T, where X stacks the real parts of the node voltages over the
imaginary parts.  This module builds the real symmetric coefficient matrices
realizing those functionals:

    active injection at node k     Tr(Y_k W)
    reactive injection at node k   Tr(Ybar_k W)
    active flow out of end (l,m)   Tr(Y_lm W)
    reactive flow out of (l,m)     Tr(Ybar_lm W)
    squared magnitude at node k    Tr(M_k W)

Flows are referenced *into* the end node: Tr(Y_lm W) is the active power the
branch delivers into node l, so on a lossless branch the two end flows sum to
zero.  All matrices live in one table: an index from the location
(kind, node, far_node) to a row id, and flat (row, p, q, c) arrays, sorted by
(row, p, q), with Tr(A_row W) = sum c * W[p, q] over the row's terms.  The
terms cover both triangles; branch rows touch at most 16 entries, which the
solver exploits heavily.

The same set lists the network's structural redundancy identities and its
one-sided branch pairs for a given set of measured locations; observability
analysis, repair and bad-data detection all take them from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .network import NetworkModel

Location = Tuple[str, int, Optional[int]]


def realify(
    a: np.ndarray, b: np.ndarray, v: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms (p, q, c) of the real symmetric A with X^T A X = Re{V^H C V},
    where C holds v[e] at (a[e], b[e]).  Each entry gives 8 consecutive terms
    (possibly repeating a position); -Im{V^H C V} is the form of 1j * v."""
    vr, vi = v.real / 2.0, v.imag / 2.0
    p = np.stack([a, b, n + a, n + b, b, a, n + a, n + b], axis=1).ravel()
    q = np.stack([b, a, n + b, n + a, n + a, n + b, b, a], axis=1).ravel()
    c = np.stack([vr, vr, vr, vr, vi, -vi, vi, -vi], axis=1).ravel()
    return p, q, c


class Identity(NamedTuple):
    """A structural redundancy identity: sum(coeff * s) over ``terms``
    vanishes on exact readings, where s is the reading at the term's location
    or, when the term is squared, the square of that reading."""

    kind: str  # node_P | node_Q | branch_1 | branch_2
    location: Tuple[int, ...]  # (node,) or (l, m)
    terms: List[Tuple[Location, float, bool]]


@dataclass(frozen=True)
class PairData:
    """Aggregated electrical data of the branches joining a node pair,
    oriented from the first node of the key toward the second."""

    series: complex
    shunt_at_from: complex


class MeasurementMatrixSet:
    """The coefficient matrix of every measurement location of one network.

    ``index`` maps (kind, node, far_node) to a row id; ``row``, ``p``, ``q``
    and ``c`` are the terms of all rows, and the terms of row r are the slice
    ``start[r]:start[r + 1]``.
    """

    def __init__(self, model: NetworkModel):
        self.model = model
        n = model.n_nodes
        self.n_nodes = n
        self.dim = 2 * n

        # Aggregate parallel in-service branches per directed node pair.
        pair_series: Dict[Tuple[int, int], complex] = {}
        pair_shunt: Dict[Tuple[int, int], complex] = {}
        for br in model.closed_branches:
            for l, m in ((br.from_node, br.to_node), (br.to_node, br.from_node)):
                pair_series[(l, m)] = pair_series.get((l, m), 0j) + br.series_admittance
                pair_shunt[(l, m)] = (
                    pair_shunt.get((l, m), 0j) + br.shunt_admittance_at_from
                )
        self.pairs: Dict[Tuple[int, int], PairData] = {
            key: PairData(series=pair_series[key], shunt_at_from=pair_shunt[key])
            for key in pair_series
        }

        # Rows: P_inj, Q_inj and Vmag per node, then P_flow and Q_flow per pair.
        keys = list(self.pairs)
        n_pairs = len(keys)
        nodes = range(n)
        locations: List[Location] = (
            [("P_inj", k, None) for k in nodes]
            + [("Q_inj", k, None) for k in nodes]
            + [("Vmag", k, None) for k in nodes]
            + [("P_flow", l, m) for l, m in keys]
            + [("Q_flow", l, m) for l, m in keys]
        )
        self.index: Dict[Location, int] = {loc: r for r, loc in enumerate(locations)}

        # Complex entries (active row, a, b, v): Ybus row k for the injection
        # at k; -(series + shunt) at (l, l) and series at (l, m) for a flow.
        ks, js = np.nonzero(model.ybus)
        ls = np.array([l for l, _ in keys], dtype=np.intp)
        ms = np.array([m for _, m in keys], dtype=np.intp)
        series = np.array([self.pairs[key].series for key in keys], dtype=complex)
        shunt = np.array([self.pairs[key].shunt_at_from for key in keys], dtype=complex)
        flow_rows = 3 * n + np.arange(n_pairs)
        ent_row = np.concatenate([ks, flow_rows, flow_rows])
        ent_a = np.concatenate([ks, ls, ls])
        ent_b = np.concatenate([js, ls, ms])
        ent_v = np.concatenate([model.ybus[ks, js], -(series + shunt), series])
        # The reactive row of each active row sits n (injections) or n_pairs
        # (flows) further on.
        offset = np.where(ent_row < n, n, n_pairs)

        p_act, q_act, c_act = realify(ent_a, ent_b, ent_v, n)
        p_rea, q_rea, c_rea = realify(ent_a, ent_b, 1j * ent_v, n)
        diag = np.arange(2 * n)
        row = np.concatenate(
            [np.repeat(ent_row, 8), np.repeat(ent_row + offset, 8), 2 * n + diag % n]
        )
        p = np.concatenate([p_act, p_rea, diag])
        q = np.concatenate([q_act, q_rea, diag])
        c = np.concatenate([c_act, c_rea, np.ones(2 * n)])

        # Sort by (row, p, q), sum repeated positions, drop exact zeros.
        order = np.lexsort((q, p, row))
        row, p, q, c = row[order], p[order], q[order], c[order]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (p[1:] != p[:-1]) | (q[1:] != q[:-1])
        heads = np.flatnonzero(first)
        c = np.add.reduceat(c, heads)
        nz = c != 0.0
        self.row = row[heads][nz]
        self.p = p[heads][nz]
        self.q = q[heads][nz]
        self.c = c[nz]
        self.start = np.searchsorted(self.row, np.arange(len(locations) + 1))

    def rows_of(self, locations: Iterable[Sequence]) -> np.ndarray:
        """Row ids of (kind, node, far_node) locations, in the given order."""
        out = []
        for kind, node, far in locations:
            r = self.index.get((kind, node, far))
            if r is None:
                raise ValidationError(
                    f"no {kind} location at node {node}"
                    + (f" -> {far}" if far is not None else "")
                )
            out.append(r)
        return np.array(out, dtype=np.intp)

    def terms(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Terms (i, p, q, c) of the given rows, where i is a row's position
        in ``rows``; each row's terms stay in (p, q) order."""
        rows = np.asarray(rows, dtype=np.intp)
        lo = self.start[rows]
        count = self.start[rows + 1] - lo
        i = np.repeat(np.arange(len(rows)), count)
        idx = np.arange(len(i)) + np.repeat(lo - (np.cumsum(count) - count), count)
        return i, self.p[idx], self.q[idx], self.c[idx]

    def values(self, rows: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Tr(A_r W) for each of the given rows, W a dense lifted matrix."""
        W = np.asarray(W, dtype=float)
        if W.shape != (self.dim, self.dim):
            raise ValidationError(
                f"dimension mismatch: matrices are {self.dim}, W is {W.shape}"
            )
        i, p, q, c = self.terms(rows)
        return np.bincount(i, weights=c * W[p, q], minlength=len(rows))

    def identities(self, present: Container[Location]) -> List[Identity]:
        """The redundancy identities whose every reading is in ``present``.

        A node whose injection and every incident flow of one kind are
        present balances them to zero (node_P, node_Q).  A zero-shunt pair
        with P and Q flows at both ends gives the loss identity (branch_1),
        and with both end magnitudes as well the voltage-drop identity
        (branch_2); both use the off-diagonal bus admittance y = ybus[l, m].
        Order: nodes ascending with P before Q, then pairs l < m ascending
        with loss before voltage drop.
        """
        out: List[Identity] = []
        for k in range(self.n_nodes):
            nbrs = self.model.neighbors(k)
            for inj, flow in (("P_inj", "P_flow"), ("Q_inj", "Q_flow")):
                locs = [(inj, k, None)] + [(flow, k, m) for m in nbrs]
                if all(loc in present for loc in locs):
                    terms = [(loc, 1.0, False) for loc in locs]
                    out.append(Identity(f"node_{inj[0]}", (k,), terms))
        for (l, m), pd in sorted(self.pairs.items()):
            if l > m or pd.shunt_at_from != 0 or self.pairs[(m, l)].shunt_at_from != 0:
                continue
            p_lm, p_ml = ("P_flow", l, m), ("P_flow", m, l)
            q_lm, q_ml = ("Q_flow", l, m), ("Q_flow", m, l)
            if not all(loc in present for loc in (p_lm, p_ml, q_lm, q_ml)):
                continue
            y = self.model.ybus[l, m]
            gr, gi = y.real, y.imag
            out.append(
                Identity(
                    "branch_1",
                    (l, m),
                    [(p_lm, gi, False), (p_ml, gi, False),
                     (q_lm, gr, False), (q_ml, gr, False)],
                )
            )
            v_l, v_m = ("Vmag", l, None), ("Vmag", m, None)
            if v_l in present and v_m in present:
                y2 = abs(y) ** 2
                out.append(
                    Identity(
                        "branch_2",
                        (l, m),
                        [(p_lm, gr, False), (p_ml, -gr, False),
                         (q_lm, -gi, False), (q_ml, gi, False),
                         (v_l, -y2, True), (v_m, y2, True)],
                    )
                )
        return out

    def one_sided(self, present: Container[Location]) -> List[Tuple[int, int]]:
        """(near, far) of every node pair whose flow readings in ``present``
        sit at one end only, pairs ascending."""
        out: List[Tuple[int, int]] = []
        for l, m in sorted(self.pairs):
            if l > m:
                continue
            here = ("P_flow", l, m) in present or ("Q_flow", l, m) in present
            there = ("P_flow", m, l) in present or ("Q_flow", m, l) in present
            if here != there:
                out.append((l, m) if here else (m, l))
        return out


def build_matrix_set(model: NetworkModel) -> MeasurementMatrixSet:
    return MeasurementMatrixSet(model)


def count_variables(n_nodes: int, n_branches: int) -> Dict[str, int]:
    """Variable and equation counts of the lifted formulation.

    A symmetric W has n(2n+1) scalar entries, of which only 3 per node and 4
    per branch carry nonzero coefficients in any measurement; the largest
    possible measurement set has that same size but contains only n + 2m
    linearly independent equations.
    """
    if n_nodes < 1 or n_branches < 0:
        raise ValidationError("need n_nodes >= 1 and n_branches >= 0")
    distinct = 3 * n_nodes + 4 * n_branches
    return {
        "total_sym": n_nodes * (2 * n_nodes + 1),
        "distinct": distinct,
        "max_measurements": distinct,
        "independent": n_nodes + 2 * n_branches,
    }
