"""Feeder topology detection, sub-network separation, and decoupled
estimation with per-sub-network angle anchors.

Every graph question here is a ``scipy.sparse.csgraph`` call on the model's
bus graph.  Separation works on the bus-level spanning tree rooted at the
feeder head: the subtree whose size best matches the target is carved off
repeatedly, and the leftover fragment around the root becomes the final
sub-network.  Each sub-network is estimated by ``estimate``, as a whole
network would be, with its anchor node's angle fixed to zero, then rotated
by the anchor's reference angle and merged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    depth_first_order,
)

from .errors import SdpseError, ValidationError
from .measurements import Measurement
from .network import NetworkModel, edge_graph, restrict
from .problem import EstimationResult, estimate
from .solver import SolverConfig

@dataclass
class TopologyInfo:
    order: List[str]  # buses in discovery order from the feeder head
    parent: Dict[str, Optional[str]]


@dataclass
class Anchor:
    sub: int
    bus: str
    phase: str
    ref_angle_deg: float = 0.0


@dataclass
class PartitionPlan:
    sub_networks: List[List[str]]
    tie_lines: List[str]
    anchors: List[Anchor] = field(default_factory=list)
    policy: str = "ignore"  # ignore | update

    def to_dict(self) -> dict:
        return {
            "sub_networks": self.sub_networks,
            "tie_lines": self.tie_lines,
            "anchors": [
                {
                    "sub": a.sub,
                    "bus": a.bus,
                    "phase": a.phase,
                    "ref_angle_deg": a.ref_angle_deg,
                }
                for a in self.anchors
            ],
            "policy": self.policy,
        }


def anchor_from_doc(rec, where: str, default_sub: Optional[int] = None) -> Anchor:
    """One {"sub", "bus", "phase", "ref_angle_deg"} anchor record of a plan or
    anchors file.  ``sub`` may be left out only when ``default_sub`` is
    given; ``where`` names the record in error messages."""
    if not isinstance(rec, dict):
        raise ValidationError(f"{where}: an anchor must be a JSON object")
    extra = set(rec) - {"sub", "bus", "phase", "ref_angle_deg"}
    if extra:
        raise ValidationError(f"{where}: unknown keys {sorted(extra)}")
    required = ("bus",) if default_sub is not None else ("sub", "bus")
    for key in required:
        if key not in rec:
            raise ValidationError(f"{where}: missing key {key!r}")
    try:
        sub = int(rec.get("sub", default_sub))
        ref = float(rec.get("ref_angle_deg", 0.0))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{where}: sub must be an integer and ref_angle_deg a number"
        )
    if not math.isfinite(ref):
        raise ValidationError(f"{where}: ref_angle_deg must be finite")
    return Anchor(
        sub=sub, bus=str(rec["bus"]), phase=rec.get("phase", "A"), ref_angle_deg=ref
    )


def plan_from_doc(doc: dict) -> PartitionPlan:
    if not isinstance(doc, dict):
        raise ValidationError("plan must be a JSON object")
    allowed = {"sub_networks", "tie_lines", "anchors", "policy"}
    extra = set(doc) - allowed
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)} in plan")
    for key in ("sub_networks", "tie_lines", "anchors"):
        if not isinstance(doc.get(key, []), list):
            raise ValidationError(f"plan {key} must be a JSON array")
    if not all(isinstance(sub, list) for sub in doc.get("sub_networks", [])):
        raise ValidationError("plan sub_networks must be arrays of bus ids")
    policy = doc.get("policy", "ignore")
    if policy not in ("ignore", "update"):
        raise ValidationError(f"plan policy must be 'ignore' or 'update', got {policy!r}")
    return PartitionPlan(
        sub_networks=[[str(b) for b in sub] for sub in doc.get("sub_networks", [])],
        tie_lines=[str(t) for t in doc.get("tie_lines", [])],
        anchors=[anchor_from_doc(rec, "plan anchor") for rec in doc.get("anchors", [])],
        policy=policy,
    )


def load_plan(path: str) -> PartitionPlan:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"plan file {path}: invalid JSON ({exc})")
    return plan_from_doc(doc)


def save_plan(path: str, plan: PartitionPlan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan.to_dict(), fh, indent=1)
        fh.write("\n")


def _bus_pos(model: NetworkModel) -> Dict[str, int]:
    return {b.id: i for i, b in enumerate(model.buses)}


def detect_topology(model: NetworkModel) -> TopologyInfo:
    """Rooted spanning tree of the bus graph, breadth-first from the feeder
    head, each bus's neighbours taken in sorted-id order.  Already-visited
    buses are never re-entered, so meshed networks yield a valid tree too."""
    pos = _bus_pos(model)
    ids = sorted(pos)
    at = np.array([pos[b] for b in ids], dtype=np.intp)
    # The search visits neighbours in stored order, so the permuted graph
    # needs its indices sorted again.
    g = model.bus_graph[at][:, at]
    g.sort_indices()
    found, pred = breadth_first_order(g, ids.index(model.feeder_head))
    order = [ids[i] for i in found]
    if len(order) < len(ids):
        reached = set(order)
        unreached = [b.id for b in model.buses if b.id not in reached]
        raise ValidationError(f"disconnected graph: unreached buses {unreached[:5]}")
    parent = {ids[i]: (ids[pred[i]] if pred[i] >= 0 else None) for i in found}
    return TopologyInfo(order=order, parent=parent)


def separate(model: NetworkModel, topology: TopologyInfo, d: int) -> PartitionPlan:
    """Carve the tree into sub-networks of roughly d buses each.

    Repeatedly picks the bus whose remaining subtree (itself plus its
    uncarved descendants) has the size closest to d, ties broken toward the
    earliest-discovered bus, carves that subtree off and takes its size off
    every ancestor's count.  A depth-first preorder of the tree makes each
    subtree one slice.  The buses left around the root at the end form the
    final sub-network.
    """
    if d < 1:
        raise ValidationError("sub-network size must be >= 1")
    order = topology.order
    n = len(order)
    pos = {b: i for i, b in enumerate(order)}
    # Buses are numbered by discovery, so a parent precedes its children.
    par = [pos.get(topology.parent[b], -1) for b in order]
    size = np.ones(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        size[par[i]] += size[i]
    tree = edge_graph(n, par[1:], range(1, n))
    pre = depth_first_order(tree, 0, return_predecessors=False)
    start = np.empty(n, dtype=np.intp)
    start[pre] = np.arange(n)

    remaining = size.copy()
    alive = np.ones(n, dtype=bool)
    subs: List[List[str]] = []
    while True:
        candidates = alive & (remaining > 1)
        if not candidates.any():
            break
        gap = np.where(candidates, np.abs(d - remaining), np.iinfo(np.int64).max)
        i = int(np.argmin(gap))
        block = pre[start[i] : start[i] + size[i]]
        sub = np.sort(block[alive[block]])
        subs.append([order[j] for j in sub])
        alive[sub] = False
        path = []
        a = par[i]
        while a >= 0:
            path.append(a)
            a = par[a]
        remaining[path] -= remaining[i]
    leftover = [order[j] for j in np.flatnonzero(alive)]
    if leftover:
        subs.append(leftover)
    return PartitionPlan(sub_networks=subs, tie_lines=_tie_lines(model, subs))


def _tie_lines(model: NetworkModel, subs: List[List[str]]) -> List[str]:
    owner: Dict[str, int] = {}
    for k, sub in enumerate(subs):
        for b in sub:
            owner[b] = k
    ties = []
    for br in model.branches:
        if not br.in_service:
            continue
        bl = model.nodes[br.from_node].bus
        bm = model.nodes[br.to_node].bus
        if owner.get(bl) != owner.get(bm):
            ties.append(br.id)
    return ties


def separate_on_switches(model: NetworkModel) -> PartitionPlan:
    """Connected components after removing every switch branch; switches
    (open or closed) become the tie-lines."""
    pos = _bus_pos(model)
    bus_of = [pos[nd.bus] for nd in model.nodes]
    kept = [br for br in model.branches if br.in_service and not br.is_switch]
    g = edge_graph(
        len(pos), [bus_of[br.from_node] for br in kept], [bus_of[br.to_node] for br in kept]
    )
    # Components are labelled in order of their lowest bus index.
    n_comp, label = connected_components(g, directed=False)
    subs: List[List[str]] = [[] for _ in range(n_comp)]
    for b, k in zip(model.buses, label):
        subs[k].append(b.id)
    ties = [br.id for br in model.branches if br.is_switch]
    return PartitionPlan(sub_networks=subs, tie_lines=ties)


def propose_anchors(model: NetworkModel, plan: PartitionPlan) -> List[Anchor]:
    """Highest-degree bus of each sub-network, as a starting point for manual
    anchor assignment (estimation still requires explicit anchors)."""
    pos = _bus_pos(model)
    degree = np.diff(model.bus_graph.indptr)
    out = []
    for k, sub in enumerate(plan.sub_networks):
        best = max(sub, key=lambda b: degree[pos[b]])
        phase = model.bus_by_id[best].phases[0]
        out.append(Anchor(sub=k, bus=best, phase=phase, ref_angle_deg=0.0))
    return out


def validate_plan(model: NetworkModel, plan: PartitionPlan) -> None:
    seen: Set[str] = set()
    for sub in plan.sub_networks:
        for b in sub:
            if b not in model.bus_by_id:
                raise ValidationError(f"plan references unknown bus {b!r}")
            if b in seen:
                raise ValidationError(f"bus {b!r} appears in two sub-networks")
            seen.add(b)
    missing = set(model.bus_by_id) - seen
    if missing:
        raise ValidationError(f"plan does not cover buses {sorted(missing)[:5]}")
    # Connectedness of each induced subgraph: components of the bus graph
    # without the edges between sub-networks.
    pos = _bus_pos(model)
    members = [[pos[b] for b in sub] for sub in plan.sub_networks]
    owner = np.empty(len(pos), dtype=np.intp)
    for k, idx in enumerate(members):
        owner[idx] = k
    g = model.bus_graph.tocoo()
    inner = owner[g.row] == owner[g.col]
    _, label = connected_components(
        edge_graph(len(pos), g.row[inner], g.col[inner]), directed=False
    )
    for k, idx in enumerate(members):
        if not idx:
            raise ValidationError(f"sub-network {k} is empty")
        if label[idx].min() != label[idx].max():
            raise ValidationError(f"sub-network {k} is not connected")
    for a in plan.anchors:
        if not (0 <= a.sub < len(plan.sub_networks)):
            raise ValidationError(f"anchor references unknown sub-network {a.sub}")
        if a.bus not in plan.sub_networks[a.sub]:
            raise ValidationError(
                f"anchor bus {a.bus!r} is not in sub-network {a.sub}"
            )
        model.node_of(a.bus, a.phase)


def estimate_decoupled(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    plan: PartitionPlan,
    config: Optional[SolverConfig] = None,
    repair_method: Optional[str] = "negate",
) -> Tuple[np.ndarray, List[EstimationResult]]:
    """Estimate each sub-network with ``estimate`` and merge.

    Returns the merged complex node voltages (full network indexing) and the
    sub-networks' own results, in plan order.  Tie-line flow measurements are
    dropped under the 'ignore' policy; under 'update' they are folded into the
    boundary node's injection reading (with summed variance) when one exists.
    An error in sub-network k is re-raised with a "sub-network k:" prefix.
    """
    validate_plan(model, plan)
    if not plan.anchors:
        raise ValidationError(
            "plan has no anchors; decoupled estimation requires an explicit "
            "anchor per sub-network"
        )
    owner: Dict[str, int] = {}
    for k, sub in enumerate(plan.sub_networks):
        for b in sub:
            owner[b] = k
    anchors_by_sub: Dict[int, List[Anchor]] = {}
    for a in plan.anchors:
        anchors_by_sub.setdefault(a.sub, []).append(a)
    for k in range(len(plan.sub_networks)):
        if k not in anchors_by_sub:
            raise ValidationError(f"sub-network {k} has no anchor")

    V = np.zeros(model.n_nodes, dtype=complex)
    results: List[EstimationResult] = []
    for k, sub in enumerate(plan.sub_networks):
        head = anchors_by_sub[k][0].bus
        submodel, node_map = restrict(model, sub, head=head)
        sub_meas = _restrict_measurements(
            model, measurements, set(sub), node_map, plan.policy
        )
        anchor_nodes = [
            submodel.node_of(a.bus, a.phase) for a in anchors_by_sub[k]
        ]
        try:
            res = estimate(submodel, sub_meas, anchor_nodes, config, repair_method)
        except SdpseError as exc:
            raise type(exc)(f"sub-network {k}: {exc}")
        shift = np.exp(1j * np.radians(anchors_by_sub[k][0].ref_angle_deg))
        for old, new in node_map.items():
            V[old] = res.V[new] * shift
        results.append(res)
    return V, results


def _restrict_measurements(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    sub: Set[str],
    node_map: Dict[int, int],
    policy: str,
) -> List[Measurement]:
    kept: List[Measurement] = []
    # (kind, local node) -> position in kept, for boundary-injection updates.
    inj_pos: Dict[Tuple[str, int], int] = {}
    ties: List[Tuple[Measurement, int]] = []
    for m in measurements:
        here = model.nodes[m.node].bus in sub
        if m.far_node is None:
            if here:
                local = node_map[m.node]
                inj_pos.setdefault((m.kind, local), len(kept))
                kept.append(replace(m, node=local))
            continue
        there = model.nodes[m.far_node].bus in sub
        if here and there:
            kept.append(
                replace(m, node=node_map[m.node], far_node=node_map[m.far_node])
            )
        elif here and policy == "update":
            ties.append((m, node_map[m.node]))
    for m, local in ties:
        kind_inj = "P_inj" if m.kind == "P_flow" else "Q_inj"
        pos = inj_pos.get((kind_inj, local))
        if pos is None:
            continue
        inj = kept[pos]
        # The sub-model's injection excludes the tie branch, so the tie flow
        # moves out of the branch sum and into the injection.
        kept[pos] = replace(
            inj,
            value=inj.value + m.value,
            sigma=float(np.hypot(inj.sigma, m.sigma)),
        )
    return kept
