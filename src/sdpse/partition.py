"""Feeder topology detection, sub-network separation, and decoupled
estimation with per-sub-network angle anchors.

Separation works on the bus-level spanning tree rooted at the feeder head:
the subtree whose size best matches the target is carved off repeatedly, and
the leftover fragment around the root becomes the final sub-network.  Each
sub-network is estimated independently with its anchor node's angle fixed to
zero, then rotated by the anchor's reference angle and merged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import SolverError, ValidationError
from .measurements import Measurement, X_to_state, repair_observability
from .network import NetworkModel, adjacency, restrict
from .problem import assemble_problem, solve_to_state
from .sdpmat import build_matrix_set
from .solver import SolverConfig


@dataclass
class TopologyInfo:
    order: List[str]  # buses in discovery order from the feeder head
    parent: Dict[str, Optional[str]]
    children: Dict[str, List[str]]
    ancestors: Dict[str, List[str]]
    generation: Dict[str, Set[str]]

    def rank(self, bus: str) -> int:
        return len(self.generation[bus])


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


def plan_from_doc(doc: dict) -> PartitionPlan:
    allowed = {"sub_networks", "tie_lines", "anchors", "policy"}
    extra = set(doc) - allowed
    if extra:
        raise ValidationError(f"unknown keys {sorted(extra)} in plan")
    anchors = []
    for rec in doc.get("anchors", []):
        a_extra = set(rec) - {"sub", "bus", "phase", "ref_angle_deg"}
        if a_extra:
            raise ValidationError(f"unknown keys {sorted(a_extra)} in plan anchor")
        anchors.append(
            Anchor(
                sub=int(rec["sub"]),
                bus=str(rec["bus"]),
                phase=rec.get("phase", "A"),
                ref_angle_deg=float(rec.get("ref_angle_deg", 0.0)),
            )
        )
    return PartitionPlan(
        sub_networks=[[str(b) for b in sub] for sub in doc.get("sub_networks", [])],
        tie_lines=[str(t) for t in doc.get("tie_lines", [])],
        anchors=anchors,
        policy=doc.get("policy", "ignore"),
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


def detect_topology(model: NetworkModel) -> TopologyInfo:
    """Rooted spanning tree of the bus graph, breadth-first from the feeder
    head.  Already-visited buses are never re-entered, so meshed networks
    yield a valid tree too."""
    adj = adjacency(model)
    head = model.feeder_head
    parent: Dict[str, Optional[str]] = {head: None}
    children: Dict[str, List[str]] = {b.id: [] for b in model.buses}
    ancestors: Dict[str, List[str]] = {head: []}
    order = [head]
    queue = [head]
    while queue:
        i = queue.pop(0)
        for j in sorted(adj[i]):
            if j in parent:
                continue
            parent[j] = i
            ancestors[j] = [i] + ancestors[i]
            children[i].append(j)
            order.append(j)
            queue.append(j)
    unreached = [b.id for b in model.buses if b.id not in parent]
    if unreached:
        raise ValidationError(f"disconnected graph: unreached buses {unreached[:5]}")
    generation: Dict[str, Set[str]] = {b.id: set() for b in model.buses}
    for i in reversed(order):
        for c in children[i]:
            generation[i].add(c)
            generation[i] |= generation[c]
    return TopologyInfo(
        order=order,
        parent=parent,
        children=children,
        ancestors=ancestors,
        generation=generation,
    )


def separate(model: NetworkModel, topology: TopologyInfo, d: int) -> PartitionPlan:
    """Carve the tree into sub-networks of roughly d buses each.

    Repeatedly picks the bus whose subtree size (itself plus its remaining
    descendants) is closest to d, ties broken toward the earliest-discovered
    bus, removes that subtree, and updates the ancestors' bookkeeping.  The
    buses left around the root at the end form the final sub-network.
    """
    if d < 1:
        raise ValidationError("sub-network size must be >= 1")
    gen: Dict[str, Set[str]] = {b: set(s) for b, s in topology.generation.items()}
    carved: Set[str] = set()
    pos = {b: i for i, b in enumerate(topology.order)}
    subs: List[List[str]] = []
    while True:
        candidates = [b for b in topology.order if b not in carved and len(gen[b]) > 0]
        if not candidates:
            break
        i = min(candidates, key=lambda b: (abs(d - (len(gen[b]) + 1)), pos[b]))
        sub = ({i} | gen[i]) - carved
        subs.append(sorted(sub, key=pos.get))
        for a in topology.ancestors[i]:
            if a not in carved:
                gen[a] -= sub
        for s in sub:
            gen[s] = set()
            carved.add(s)
    leftover = [b for b in topology.order if b not in carved]
    if leftover:
        subs.append(leftover)
    plan = PartitionPlan(sub_networks=subs, tie_lines=_tie_lines(model, subs))
    return plan


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
    adj: Dict[str, Set[str]] = {b.id: set() for b in model.buses}
    for br in model.branches:
        if br.is_switch or not br.in_service:
            continue
        bl = model.nodes[br.from_node].bus
        bm = model.nodes[br.to_node].bus
        if bl != bm:
            adj[bl].add(bm)
            adj[bm].add(bl)
    pos = {b.id: i for i, b in enumerate(model.buses)}
    seen: Set[str] = set()
    subs: List[List[str]] = []
    for b in model.buses:
        if b.id in seen:
            continue
        comp = []
        stack = [b.id]
        seen.add(b.id)
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in sorted(adj[i]):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        subs.append(sorted(comp, key=pos.get))
    ties = [br.id for br in model.branches if br.is_switch]
    return PartitionPlan(sub_networks=subs, tie_lines=ties)


def propose_anchors(model: NetworkModel, plan: PartitionPlan) -> List[Anchor]:
    """Highest-degree bus of each sub-network, as a starting point for manual
    anchor assignment (estimation still requires explicit anchors)."""
    adj = adjacency(model)
    out = []
    for k, sub in enumerate(plan.sub_networks):
        best = max(sub, key=lambda b: len(adj[b]))
        phase = model.bus_by_id[best].phases[0]
        out.append(Anchor(sub=k, bus=best, phase=phase, ref_angle_deg=0.0))
    return out


def validate_plan(model: NetworkModel, plan: PartitionPlan) -> None:
    all_buses = [b.id for b in model.buses]
    seen: Set[str] = set()
    for sub in plan.sub_networks:
        for b in sub:
            if b not in model.bus_by_id:
                raise ValidationError(f"plan references unknown bus {b!r}")
            if b in seen:
                raise ValidationError(f"bus {b!r} appears in two sub-networks")
            seen.add(b)
    missing = set(all_buses) - seen
    if missing:
        raise ValidationError(f"plan does not cover buses {sorted(missing)[:5]}")
    # Connectedness of each induced subgraph.
    adj = adjacency(model)
    for k, sub in enumerate(plan.sub_networks):
        sset = set(sub)
        stack, comp = [sub[0]], {sub[0]}
        while stack:
            i = stack.pop()
            for j in adj[i]:
                if j in sset and j not in comp:
                    comp.add(j)
                    stack.append(j)
        if comp != sset:
            raise ValidationError(f"sub-network {k} is not connected")
    for a in plan.anchors:
        if not (0 <= a.sub < len(plan.sub_networks)):
            raise ValidationError(f"anchor references unknown sub-network {a.sub}")
        if a.bus not in plan.sub_networks[a.sub]:
            raise ValidationError(
                f"anchor bus {a.bus!r} is not in sub-network {a.sub}"
            )
        model.node_of(a.bus, a.phase)


@dataclass
class SubReport:
    sub: int
    n_nodes: int
    objective: float
    iterations: int
    status: str
    rank1_ratio: float


def estimate_decoupled(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    plan: PartitionPlan,
    config: Optional[SolverConfig] = None,
    repair_method: Optional[str] = "negate",
) -> Tuple[np.ndarray, List[SubReport]]:
    """Solve each sub-network independently and merge.

    Returns the merged complex node voltages (full network indexing) and one
    report per sub-network.  Tie-line flow measurements are dropped under the
    'ignore' policy; under 'update' they are folded into the boundary node's
    injection reading (with summed variance) when one exists.
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
    reports: List[SubReport] = []
    for k, sub in enumerate(plan.sub_networks):
        head = anchors_by_sub[k][0].bus
        submodel, node_map = restrict(model, sub, head=head)
        sub_meas = _restrict_measurements(
            model, measurements, set(sub), node_map, plan.policy
        )
        mats = build_matrix_set(submodel)
        if repair_method is not None:
            sub_meas, _ = repair_observability(submodel, mats, sub_meas, repair_method)
        anchor_nodes = [
            submodel.node_of(a.bus, a.phase) for a in anchors_by_sub[k]
        ]
        try:
            prob = assemble_problem(mats, sub_meas, anchor_nodes)
            report, X, ratio = solve_to_state(prob, config)
        except (ValidationError, SolverError) as exc:
            raise type(exc)(f"sub-network {k}: {exc}")
        V_sub = X_to_state(X)
        shift = np.exp(1j * np.radians(anchors_by_sub[k][0].ref_angle_deg))
        for old, new in node_map.items():
            V[old] = V_sub[new] * shift
        reports.append(
            SubReport(
                sub=k,
                n_nodes=submodel.n_nodes,
                objective=report.objective,
                iterations=report.iterations,
                status=report.status,
                rank1_ratio=ratio,
            )
        )
    return V, reports


def _restrict_measurements(
    model: NetworkModel,
    measurements: Sequence[Measurement],
    sub: Set[str],
    node_map: Dict[int, int],
    policy: str,
) -> List[Measurement]:
    from dataclasses import replace

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
