"""Input generators of the benchmark: feeder documents, truth states and
measurement plans.

``chain_doc``, ``tree_doc``, ``multiphase_feeder_doc`` and ``random_state``
follow the test-suite generators draw for draw (``check_generators.py``
confirms it once), but live here so that an edit to the test helpers cannot
shift a workload.  Nothing in this file imports ``sdpse``: node indices are
derived from the network document by the package's documented rule (buses in
document order, each bus's phases sorted).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PlanEntry = Tuple[str, int, Optional[int]]

PHASE_SHIFT_DEG = {"A": 0.0, "B": -120.0, "C": 120.0}


def chain_doc(n: int, seed: int = 0) -> dict:
    """Single-phase chain b0 - b1 - ... with the head at b0."""
    rng = np.random.default_rng(seed)
    buses = [
        {"id": f"b{i}", "phases": ["A"], **({"feeder_head": True} if i == 0 else {})}
        for i in range(n)
    ]
    branches = [
        {
            "id": f"l{i}",
            "from": {"bus": f"b{i}", "phase": "A"},
            "to": {"bus": f"b{i+1}", "phase": "A"},
            "r": round(0.005 + 0.02 * rng.random(), 6),
            "x": round(0.02 + 0.04 * rng.random(), 6),
        }
        for i in range(n - 1)
    ]
    return {"buses": buses, "branches": branches}


def tree_doc(n: int, seed: int = 0, trunk_bias: int = 0) -> dict:
    """Random single-phase radial tree; ``trunk_bias > 0`` picks each parent
    among the most recent buses, which gives deep, feeder-like trees."""
    rng = np.random.default_rng(seed)
    buses = [{"id": "b0", "phases": ["A"], "feeder_head": True}]
    branches = []
    for i in range(1, n):
        lo = max(0, i - trunk_bias) if trunk_bias > 0 else 0
        parent = int(rng.integers(lo, i))
        buses.append({"id": f"b{i}", "phases": ["A"]})
        branches.append(
            {
                "id": f"l{i-1}",
                "from": {"bus": f"b{parent}", "phase": "A"},
                "to": {"bus": f"b{i}", "phase": "A"},
                "r": round(0.005 + 0.02 * rng.random(), 6),
                "x": round(0.02 + 0.04 * rng.random(), 6),
            }
        )
    return {"buses": buses, "branches": branches}


MULTIPHASE_PHASES = {
    "650": "ABC", "RG60": "ABC", "632": "ABC", "670": "ABC", "633": "ABC",
    "634": "ABC", "645": "BC", "646": "BC", "671": "ABC", "692": "ABC",
    "675": "ABC", "684": "AC", "611": "C", "652": "A", "680": "ABC",
}

# Line segments (from, to, cross-phase coupled).  The head segment carries a
# double circuit and the second segment an extra uncoupled circuit.
MULTIPHASE_SEGMENTS = [
    ("650", "RG60", True), ("RG60", "632", False),
    ("650", "RG60", True), ("RG60", "632", True), ("632", "670", True),
    ("670", "671", True), ("671", "680", True), ("632", "633", True),
    ("633", "634", True), ("692", "675", True), ("632", "645", True),
    ("645", "646", True), ("671", "684", True), ("684", "611", True),
    ("684", "652", True),
]


def multiphase_feeder_doc() -> dict:
    """The 38-node, 107-branch multiphase feeder shaped like the classic
    13-bus test case: one branch per nonzero impedance-matrix entry, so
    coupled segments carry cross-phase branches, plus a closed per-phase
    switch between 671 and 692."""
    rng = np.random.default_rng(1303)
    buses = [
        {"id": bid, "phases": list(ph), **({"feeder_head": True} if bid == "650" else {})}
        for bid, ph in MULTIPHASE_PHASES.items()
    ]
    branches: List[dict] = []

    def add(a, pa, b, pb, is_switch=False):
        # Same-phase conductors are stiff, cross-phase couplings weak.
        if pa == pb:
            r = 0.004 + 0.01 * rng.random()
            x = 0.01 + 0.03 * rng.random()
        else:
            r = 0.4 + 0.6 * rng.random()
            x = 1.2 + 1.8 * rng.random()
        branches.append(
            {
                "id": f"seg{len(branches)}",
                "from": {"bus": a, "phase": pa},
                "to": {"bus": b, "phase": pb},
                "r": round(r, 6),
                "x": round(x, 6),
                **({"is_switch": True, "closed": True} if is_switch else {}),
            }
        )

    for a, b, coupled in MULTIPHASE_SEGMENTS:
        for pa in MULTIPHASE_PHASES[a]:
            for pb in MULTIPHASE_PHASES[b]:
                if pa == pb or coupled:
                    add(a, pa, b, pb)
    for p in "ABC":
        add("671", p, "692", p, is_switch=True)
    return {"buses": buses, "branches": branches}


def trim(doc: dict, keep: Sequence[str]) -> dict:
    """The sub-feeder on the listed buses: the branches between them keep
    their ids and impedances, branches leaving the set are dropped."""
    keep_set = set(keep)
    return {
        "buses": [b for b in doc["buses"] if b["id"] in keep_set],
        "branches": [
            br
            for br in doc["branches"]
            if br["from"]["bus"] in keep_set and br["to"]["bus"] in keep_set
        ],
    }


def node_list(doc: dict) -> List[Tuple[str, str]]:
    """(bus, phase) of every node, in the package's node-index order."""
    return [(b["id"], p) for b in doc["buses"] for p in sorted(set(b["phases"]))]


def head_bus(doc: dict) -> str:
    return next(b["id"] for b in doc["buses"] if b.get("feeder_head"))


def closed_branches(doc: dict) -> List[dict]:
    return [br for br in doc["branches"] if br.get("closed", True) or not br.get("is_switch")]


def node_index(doc: dict) -> Dict[Tuple[str, str], int]:
    return {nd: i for i, nd in enumerate(node_list(doc))}


def branch_nodes(index: Dict[Tuple[str, str], int], br: dict) -> Tuple[int, int]:
    return (
        index[(br["from"]["bus"], br["from"].get("phase", "A"))],
        index[(br["to"]["bus"], br["to"].get("phase", "A"))],
    )


def random_state(
    doc: dict,
    seed: int = 0,
    mag_spread: float = 0.04,
    angle_spread_deg: float = 4.0,
) -> np.ndarray:
    """Complex node voltages near nominal.  Feeder-head nodes sit at the phase
    reference (0 / -120 / +120 degrees), so the head can anchor the angle."""
    rng = np.random.default_rng(seed)
    head = head_bus(doc)
    nodes = node_list(doc)
    V = np.empty(len(nodes), dtype=complex)
    for i, (bus, phase) in enumerate(nodes):
        mag = 1.0 + mag_spread * (rng.random() - 0.5)
        ang = PHASE_SHIFT_DEG[phase] + angle_spread_deg * (rng.random() - 0.5)
        if bus == head:
            mag = 1.0 + 0.01 * rng.random()
            ang = PHASE_SHIFT_DEG[phase]
        V[i] = mag * np.exp(1j * np.radians(ang))
    return V


def one_sided_plan(doc: dict, vmag_nodes: Sequence[int]) -> List[PlanEntry]:
    """P/Q flow at the from end of every metered node pair, P/Q injection at
    the head, and magnitudes at ``vmag_nodes``: the package's default plan."""
    index = node_index(doc)
    plan: List[PlanEntry] = []
    seen = set()
    for br in closed_branches(doc):
        l, m = branch_nodes(index, br)
        if (l, m) in seen:
            continue
        seen.update({(l, m), (m, l)})
        plan += [("P_flow", l, m), ("Q_flow", l, m)]
    head = head_bus(doc)
    for (bus, _), k in index.items():
        if bus == head:
            plan += [("P_inj", k, None), ("Q_inj", k, None)]
    plan += [("Vmag", k, None) for k in vmag_nodes]
    return plan


def full_plan(doc: dict) -> List[PlanEntry]:
    """Both-end flows on every node pair, every injection, every magnitude."""
    index = node_index(doc)
    pairs = set()
    for br in closed_branches(doc):
        l, m = branch_nodes(index, br)
        pairs.update({(l, m), (m, l)})
    n = len(index)
    plan: List[PlanEntry] = []
    for l, m in sorted(pairs):
        plan += [("P_flow", l, m), ("Q_flow", l, m)]
    for k in range(n):
        plan += [("P_inj", k, None), ("Q_inj", k, None)]
    plan += [("Vmag", k, None) for k in range(n)]
    return plan


def both_ends(doc: dict, plan: List[PlanEntry], branch_ids: Sequence[str]) -> List[PlanEntry]:
    """``plan`` plus P/Q flow readings at both ends of the listed branches."""
    index = node_index(doc)
    wanted = set(branch_ids)
    out = list(plan)
    seen = set(plan)
    for br in doc["branches"]:
        if br["id"] not in wanted:
            continue
        l, m = branch_nodes(index, br)
        for entry in (
            (kind, a, b) for kind in ("P_flow", "Q_flow") for a, b in ((l, m), (m, l))
        ):
            if entry not in seen:
                out.append(entry)
                seen.add(entry)
    return out


def rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Independent stream for one purpose (and one case) of a run seed."""
    return np.random.default_rng([seed, purpose, index])


def sub_seed(seed: int, purpose: int, index: int = 0) -> int:
    """A seed handed to the program (synthesis noise) for one case."""
    return int(rng(seed, purpose, index).integers(2**62))
