"""Network model: buses, phase-resolved nodes, branches, and the reduced
admittance matrix.

A *bus* is a physical connection point carrying one to three phases.  Each
(bus, phase) pair is a *node*; nodes are the rows/columns of the admittance
matrix.  Branches connect individual nodes, so a mutually-coupled three-phase
line appears as several node-to-node branches (one per nonzero impedance
entry), which keeps single-phase and multiphase handling identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import ValidationError

PHASES = ("A", "B", "C")


@dataclass(frozen=True)
class Bus:
    id: str
    phases: Tuple[str, ...]
    is_feeder_head: bool = False
    base_kV: float = 1.0


@dataclass(frozen=True)
class Node:
    index: int
    bus: str
    phase: str


@dataclass(frozen=True)
class Branch:
    """One node-to-node branch.

    ``shunt_admittance_at_from`` is the per-end shunt admittance; the same
    value sits at the receiving end (symmetric pi model), so a network file's
    total charging susceptance is split half-half between the two ends.
    """

    id: str
    from_node: int
    to_node: int
    series_admittance: complex
    shunt_admittance_at_from: complex = 0j
    is_switch: bool = False
    switch_closed: bool = True

    @property
    def in_service(self) -> bool:
        return self.switch_closed or not self.is_switch

    @property
    def impedance(self) -> complex:
        return 1.0 / self.series_admittance


def edge_graph(n: int, a: Sequence[int], b: Sequence[int]) -> sp.csr_matrix:
    """Symmetric 0/1 CSR graph on n vertices with an edge per (a[e], b[e]);
    repeated edges merge, self-loops drop and indices are sorted."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    key = np.sort(np.concatenate([a * n + b, b * n + a]))
    rows, cols = np.divmod(key, n)
    keep = rows != cols
    keep[1:] &= key[1:] != key[:-1]
    rows, cols = rows[keep], cols[keep]
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    return sp.csr_matrix(
        (np.ones(len(cols)), cols.astype(np.int32), indptr), shape=(n, n)
    )


class NetworkModel:
    """Validated, immutable network with its assembled admittance matrix.

    ``node_graph`` joins the two end nodes of every in-service branch;
    ``bus_graph`` is the same graph on buses, in model order.  Both are
    symmetric CSR matrices with sorted indices.
    """

    def __init__(self, buses: List[Bus], nodes: List[Node], branches: List[Branch]):
        self.buses = list(buses)
        self.nodes = list(nodes)
        self.branches = list(branches)
        self.node_index: Dict[Tuple[str, str], int] = {
            (n.bus, n.phase): n.index for n in nodes
        }
        self.bus_by_id: Dict[str, Bus] = {b.id: b for b in buses}
        self.ybus = assemble_ybus(buses, nodes, branches)
        live = [br for br in branches if br.in_service]
        self.node_graph = edge_graph(
            len(nodes), [br.from_node for br in live], [br.to_node for br in live]
        )
        heads = [b.id for b in buses if b.is_feeder_head]
        self.feeder_head: str = heads[0] if heads else buses[0].id

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def closed_branches(self) -> List[Branch]:
        return [br for br in self.branches if br.in_service]

    @property
    def n_closed_branches(self) -> int:
        return len(self.closed_branches)

    def node_of(self, bus: str, phase: str) -> int:
        try:
            return self.node_index[(bus, phase)]
        except KeyError:
            raise ValidationError(f"no node for bus {bus!r} phase {phase!r}")

    def nodes_of_bus(self, bus: str) -> List[int]:
        return [n.index for n in self.nodes if n.bus == bus]

    def node_name(self, idx: int) -> dict:
        """The {"bus", "phase"} record that reports use for a node."""
        nd = self.nodes[idx]
        return {"bus": nd.bus, "phase": nd.phase}

    def neighbors(self, k: int) -> List[int]:
        """Nodes joined to node k by an in-service branch, ascending."""
        g = self.node_graph
        return g.indices[g.indptr[k] : g.indptr[k + 1]].tolist()

    def unreached(self, sources: Iterable[int]) -> np.ndarray:
        """Nodes that no path of in-service branches joins to any of
        ``sources``, ascending."""
        seen = np.zeros(self.n_nodes, dtype=bool)
        for s in sources:
            if not seen[s]:
                found = breadth_first_order(self.node_graph, s, return_predecessors=False)
                seen[found] = True
        return np.flatnonzero(~seen)

    @cached_property
    def bus_graph(self) -> sp.csr_matrix:
        pos = {b.id: i for i, b in enumerate(self.buses)}
        bus_of = np.array([pos[nd.bus] for nd in self.nodes], dtype=np.int64)
        g = self.node_graph
        rows = np.repeat(np.arange(self.n_nodes), np.diff(g.indptr))
        return edge_graph(len(self.buses), bus_of[rows], bus_of[g.indices])


def assemble_ybus(
    buses: Sequence[Bus], nodes: Sequence[Node], branches: Sequence[Branch]
) -> np.ndarray:
    """Build the N'xN' complex admittance matrix from in-service branches.

    Diagonal entries accumulate series plus per-end shunt admittance of every
    incident branch; off-diagonals are minus the (summed) series admittance of
    the branches joining the two nodes.
    """
    n = len(nodes)
    y = np.zeros((n, n), dtype=complex)
    for br in branches:
        if not br.in_service:
            continue
        l, m = br.from_node, br.to_node
        ys = br.series_admittance
        ysh = br.shunt_admittance_at_from
        y[l, l] += ys + ysh
        y[m, m] += ys + ysh
        y[l, m] -= ys
        y[m, l] -= ys
    return y


_BUS_KEYS = {"id", "phases", "feeder_head", "base_kV"}
_BRANCH_KEYS = {"id", "from", "to", "r", "x", "shunt_b", "is_switch", "closed"}
_ENDPOINT_KEYS = {"bus", "phase"}
_TOP_KEYS = {"buses", "branches", "base_mva"}


def parse_number(value, where: str, finite: bool = True) -> float:
    """A number read from an input file as a float.  ValidationError naming
    the record (``where``) when it is no number, or, with ``finite``, when
    it is infinite or NaN."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where} must be a number, got {value!r}") from None
    if finite and not math.isfinite(out):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return out


def parse_phase(value, where: str) -> str:
    """A phase name read from an input file; ValidationError naming the
    field (``where``) unless it is a string, so that a list or a number
    fails as bad input rather than in a lookup."""
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a phase name A, B or C, got {value!r}")
    return value


def parse_bool(value, where: str) -> bool:
    """A JSON boolean; ValidationError naming the record (``where``) for
    anything else, so that the string ``"false"`` is not read as true."""
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false, got {value!r}")
    return value


def require_object(rec, where: str) -> None:
    """ValidationError naming the record unless it is a JSON object."""
    if not isinstance(rec, dict):
        raise ValidationError(f"{where} must be a JSON object, got {rec!r}")


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)} in {where}")


def parse_network(document: dict) -> NetworkModel:
    """Validate a network document and construct the model.

    Branch impedances are given in ohms (shunts in siemens) and converted to
    per-unit on the declared bases; with the default bases of 1.0 the values
    pass through unchanged.
    """
    if not isinstance(document, dict):
        raise ValidationError("network document must be a JSON object")
    _reject_unknown(document, _TOP_KEYS, "network document")
    if "buses" not in document or "branches" not in document:
        raise ValidationError("network document needs 'buses' and 'branches'")
    for key in ("buses", "branches"):
        if not isinstance(document[key], list):
            raise ValidationError(f"network document: {key!r} must be a JSON array")
    base_mva = parse_number(document.get("base_mva", 1.0), "network document: base_mva")
    if base_mva <= 0:
        raise ValidationError("base_mva must be positive")

    buses: List[Bus] = []
    seen_buses: Set[str] = set()
    for k, raw in enumerate(document["buses"]):
        require_object(raw, f"bus entry {k}")
        _reject_unknown(raw, _BUS_KEYS, f"bus {raw.get('id')!r}")
        if "id" not in raw or "phases" not in raw:
            raise ValidationError("every bus needs 'id' and 'phases'")
        bid = str(raw["id"])
        if bid in seen_buses:
            raise ValidationError(f"duplicate bus id {bid!r}")
        seen_buses.add(bid)
        phases = raw["phases"]
        if not isinstance(phases, list) or not all(isinstance(p, str) for p in phases):
            raise ValidationError(
                f"bus {bid!r}: phases must be an array of A/B/C, got {phases!r}"
            )
        phases = tuple(sorted(set(phases)))
        if not phases or any(p not in PHASES for p in phases):
            raise ValidationError(f"bus {bid!r}: phases must be a non-empty subset of A/B/C")
        base_kv = parse_number(raw.get("base_kV", 1.0), f"bus {bid!r}: base_kV")
        if base_kv <= 0:
            raise ValidationError(f"bus {bid!r}: base_kV must be positive")
        buses.append(
            Bus(
                id=bid,
                phases=phases,
                is_feeder_head=parse_bool(
                    raw.get("feeder_head", False), f"bus {bid!r}: feeder_head"
                ),
                base_kV=base_kv,
            )
        )

    heads = [b for b in buses if b.is_feeder_head]
    if len(heads) != 1:
        raise ValidationError(f"exactly one feeder_head bus required, found {len(heads)}")

    nodes: List[Node] = []
    for b in buses:
        for p in b.phases:
            nodes.append(Node(index=len(nodes), bus=b.id, phase=p))
    node_index = {(n.bus, n.phase): n.index for n in nodes}
    bus_by_id = {b.id: b for b in buses}

    def resolve(endpoint: dict, where: str) -> int:
        require_object(endpoint, where)
        _reject_unknown(endpoint, _ENDPOINT_KEYS, where)
        bus = str(endpoint.get("bus"))
        phase = parse_phase(endpoint.get("phase", "A"), f"{where}: phase")
        if bus not in bus_by_id:
            raise ValidationError(f"{where}: unknown bus {bus!r}")
        if (bus, phase) not in node_index:
            raise ValidationError(f"{where}: bus {bus!r} has no phase {phase!r}")
        return node_index[(bus, phase)]

    branches: List[Branch] = []
    seen_branches: Set[str] = set()
    for k, raw in enumerate(document["branches"]):
        require_object(raw, f"branch entry {k}")
        brid = str(raw.get("id"))
        _reject_unknown(raw, _BRANCH_KEYS, f"branch {brid!r}")
        for key in ("id", "from", "to", "r", "x"):
            if key not in raw:
                raise ValidationError(f"branch {brid!r}: missing key {key!r}")
        if brid in seen_branches:
            raise ValidationError(f"duplicate branch id {brid!r}")
        seen_branches.add(brid)
        l = resolve(raw["from"], f"branch {brid!r} from")
        m = resolve(raw["to"], f"branch {brid!r} to")
        if l == m:
            raise ValidationError(f"branch {brid!r}: from and to are the same node")
        base_kv = bus_by_id[nodes[l].bus].base_kV
        z_base = base_kv * base_kv / base_mva
        r = parse_number(raw["r"], f"branch {brid!r}: r") / z_base
        x = parse_number(raw["x"], f"branch {brid!r}: x") / z_base
        b_total = parse_number(raw.get("shunt_b", 0.0), f"branch {brid!r}: shunt_b") * z_base
        is_switch = parse_bool(raw.get("is_switch", False), f"branch {brid!r}: is_switch")
        closed = parse_bool(raw.get("closed", True), f"branch {brid!r}: closed")
        z = complex(r, x)
        if z == 0:
            if closed:
                raise ValidationError(f"branch {brid!r}: closed branch with zero impedance")
            ys = 0j
        else:
            ys = 1.0 / z
        branches.append(
            Branch(
                id=brid,
                from_node=l,
                to_node=m,
                series_admittance=ys,
                shunt_admittance_at_from=complex(0.0, b_total / 2.0),
                is_switch=is_switch,
                switch_closed=closed,
            )
        )

    model = NetworkModel(buses, nodes, branches)
    unreached = model.unreached(model.nodes_of_bus(heads[0].id))
    missing = [(nodes[i].bus, nodes[i].phase) for i in unreached]
    if missing:
        raise ValidationError(
            f"disconnected graph: {len(missing)} node(s) unreachable from the "
            f"feeder head, e.g. {missing[:5]}"
        )
    return model


def load_network(path: str) -> NetworkModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"network file {path}: invalid JSON ({exc})")
    return parse_network(doc)


def restrict(
    model: NetworkModel, bus_ids: Sequence[str], head: Optional[str] = None
) -> Tuple[NetworkModel, Dict[int, int]]:
    """Sub-network induced by a bus subset.

    Returns the restricted model plus the old-node -> new-node index map.
    Branches with one endpoint outside the subset are dropped (they become
    tie-lines at a higher level).  ``head`` names the bus to treat as the
    sub-network's root; defaults to the original feeder head if included,
    else the first bus of the subset.
    """
    keep = set(bus_ids)
    unknown = keep - set(model.bus_by_id)
    if unknown:
        raise ValidationError(f"restrict: unknown buses {sorted(unknown)}")
    if head is None:
        head = model.feeder_head if model.feeder_head in keep else next(
            b.id for b in model.buses if b.id in keep
        )
    buses = [
        Bus(b.id, b.phases, is_feeder_head=(b.id == head), base_kV=b.base_kV)
        for b in model.buses
        if b.id in keep
    ]
    nodes: List[Node] = []
    node_map: Dict[int, int] = {}
    for old in model.nodes:
        if old.bus in keep:
            node_map[old.index] = len(nodes)
            nodes.append(Node(index=len(nodes), bus=old.bus, phase=old.phase))
    branches = [
        Branch(
            id=br.id,
            from_node=node_map[br.from_node],
            to_node=node_map[br.to_node],
            series_admittance=br.series_admittance,
            shunt_admittance_at_from=br.shunt_admittance_at_from,
            is_switch=br.is_switch,
            switch_closed=br.switch_closed,
        )
        for br in model.branches
        if br.from_node in node_map and br.to_node in node_map
    ]
    return NetworkModel(buses, nodes, branches), node_map
