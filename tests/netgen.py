"""Synthetic network and ground-truth builders shared across the test suite.

Ground-truth states are drawn directly (no power flow needed): measurements
synthesized from a state are self-consistent by construction, which is all
the estimator cares about.  Feeder-head truth angles are zero so the head can
serve as an anchor.
"""

from __future__ import annotations

import numpy as np

from sdpse.network import NetworkModel, parse_network


def chain_doc(n: int, seed: int = 0, zero_shunt: bool = True) -> dict:
    rng = np.random.default_rng(seed)
    buses = [
        {"id": f"b{i}", "phases": ["A"], **({"feeder_head": True} if i == 0 else {})}
        for i in range(n)
    ]
    branches = []
    for i in range(n - 1):
        br = {
            "id": f"l{i}",
            "from": {"bus": f"b{i}", "phase": "A"},
            "to": {"bus": f"b{i+1}", "phase": "A"},
            "r": round(0.005 + 0.02 * rng.random(), 6),
            "x": round(0.02 + 0.04 * rng.random(), 6),
        }
        if not zero_shunt:
            br["shunt_b"] = round(0.01 * rng.random(), 6)
        branches.append(br)
    return {"buses": buses, "branches": branches}


def tree_doc(
    n: int,
    seed: int = 0,
    zero_shunt: bool = True,
    meshed_extra: int = 0,
    trunk_bias: int = 0,
) -> dict:
    """Random radial tree; with meshed_extra > 0 additional closing branches.

    trunk_bias > 0 restricts each parent choice to the most recent buses,
    giving deep, feeder-like trees.
    """
    rng = np.random.default_rng(seed)
    buses = [{"id": "b0", "phases": ["A"], "feeder_head": True}]
    branches = []
    for i in range(1, n):
        if trunk_bias > 0:
            lo = max(0, i - trunk_bias)
            parent = int(rng.integers(lo, i))
        else:
            parent = int(rng.integers(0, i))
        buses.append({"id": f"b{i}", "phases": ["A"]})
        branches.append(
            {
                "id": f"l{i-1}",
                "from": {"bus": f"b{parent}", "phase": "A"},
                "to": {"bus": f"b{i}", "phase": "A"},
                "r": round(0.005 + 0.02 * rng.random(), 6),
                "x": round(0.02 + 0.04 * rng.random(), 6),
                **({} if zero_shunt else {"shunt_b": round(0.01 * rng.random(), 6)}),
            }
        )
    added = set()
    k = 0
    while k < meshed_extra:
        a, b = rng.integers(0, n, size=2)
        if a == b or (min(a, b), max(a, b)) in added:
            continue
        if any(
            br["from"]["bus"] == f"b{min(a,b)}" and br["to"]["bus"] == f"b{max(a,b)}"
            for br in branches
        ):
            continue
        added.add((min(a, b), max(a, b)))
        branches.append(
            {
                "id": f"m{k}",
                "from": {"bus": f"b{a}", "phase": "A"},
                "to": {"bus": f"b{b}", "phase": "A"},
                "r": round(0.005 + 0.02 * rng.random(), 6),
                "x": round(0.02 + 0.04 * rng.random(), 6),
            }
        )
        k += 1
    return {"buses": buses, "branches": branches}


def multiphase_feeder_doc() -> dict:
    """A 14-bus multiphase feeder with 38 nodes and 107 branches, shaped like
    the classic 13-bus distribution test case (one closed switch included).

    Mutually-coupled line segments appear as one branch per nonzero
    impedance-matrix entry, including cross-phase couplings.
    """
    rng = np.random.default_rng(1303)
    phase_map = {
        "650": "ABC", "RG60": "ABC", "632": "ABC", "670": "ABC", "633": "ABC",
        "634": "ABC", "645": "BC", "646": "BC", "671": "ABC", "692": "ABC",
        "675": "ABC", "684": "AC", "611": "C", "652": "A", "680": "ABC",
    }
    buses = [
        {"id": bid, "phases": list(ph), **({"feeder_head": True} if bid == "650" else {})}
        for bid, ph in phase_map.items()
    ]
    segments = [
        ("650", "RG60", True), ("RG60", "632", True), ("632", "670", True),
        ("670", "671", True), ("671", "680", True), ("632", "633", True),
        ("633", "634", True), ("692", "675", True), ("632", "645", True),
        ("645", "646", True), ("671", "684", True), ("684", "611", True),
        ("684", "652", True),
    ]
    branches = []

    def add(a, pa, b, pb, is_switch=False):
        # Same-phase conductors are stiff; cross-phase coupling branches are
        # weak (high impedance), as expected from inverted line impedance
        # matrices with dominant diagonals.
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

    # The first head segment carries a double circuit; the second gets an
    # extra uncoupled circuit (phase-to-same-phase only).
    segments = [("650", "RG60", True), ("RG60", "632", False)] + segments
    for a, b, coupled in segments:
        pa_set, pb_set = phase_map[a], phase_map[b]
        for pa in pa_set:
            for pb in pb_set:
                if pa == pb or coupled:
                    add(a, pa, b, pb)
    # The switch between 671 and 692: per-phase, uncoupled.
    for p in "ABC":
        add("671", p, "692", p, is_switch=True)
    assert len(branches) == 107, len(branches)
    doc = {"buses": buses, "branches": branches}
    return doc


def trim(doc: dict, keep) -> dict:
    """The sub-feeder on the listed buses: the branches between them keep
    their ids and impedances, branches leaving the set are dropped.  The
    benchmark's ``bench/feeders.py`` cuts its multiphase head the same way."""
    keep_set = set(keep)
    return {
        "buses": [b for b in doc["buses"] if b["id"] in keep_set],
        "branches": [
            br
            for br in doc["branches"]
            if br["from"]["bus"] in keep_set and br["to"]["bus"] in keep_set
        ],
    }


def model_from(doc: dict) -> NetworkModel:
    return parse_network(doc)


def random_state(
    model: NetworkModel,
    seed: int = 0,
    mag_spread: float = 0.04,
    angle_spread_deg: float = 4.0,
) -> np.ndarray:
    """Complex node voltages near nominal; feeder-head angles at the phase
    reference (0 / -120 / +120 degrees, with the head's own phase A at 0)."""
    rng = np.random.default_rng(seed)
    shift = {"A": 0.0, "B": -120.0, "C": 120.0}
    V = np.empty(model.n_nodes, dtype=complex)
    head = model.feeder_head
    for nd in model.nodes:
        mag = 1.0 + mag_spread * (rng.random() - 0.5)
        ang = shift[nd.phase] + angle_spread_deg * (rng.random() - 0.5)
        if nd.bus == head:
            mag = 1.0 + 0.01 * rng.random()
            ang = shift[nd.phase]
        V[nd.index] = mag * np.exp(1j * np.radians(ang))
    return V


def flow_oracle(V: np.ndarray, l: int, m: int, ys: complex, ysh: complex) -> complex:
    """Complex power the branch (aggregate) delivers into node l."""
    current_out = (ys + ysh) * V[l] - ys * V[m]
    return -V[l] * np.conj(current_out)


def injection_oracle(V: np.ndarray, ybus: np.ndarray, k: int) -> complex:
    return V[k] * np.conj(ybus[k] @ V)


def anchored_plan_case(
    n: int,
    size: int,
    vmag_buses=(0,),
    level: int = 2,
    noise_seed: int = 0,
    full: bool = False,
):
    """A decoupled estimation case on ``tree_doc(n, seed=7, trunk_bias=3)``,
    truth seed 100, split by ``separate(..., size)`` with the ``update`` tie
    policy.  Each sub-network is anchored at its first bus at the true angle,
    where a µPMU reads the magnitude (sigma 1e-5, noiseless at L0).  The
    readings are the full plan, or the one-sided plan with magnitudes at
    ``vmag_buses`` and the tie branches metered at both ends.  Returns the
    model, the truth, the readings and the plan."""
    from sdpse.measurements import (
        Measurement,
        NoiseSpec,
        default_plan,
        full_plan,
        state_to_X,
        synthesize,
    )
    from sdpse.partition import Anchor, detect_topology, separate
    from sdpse.sdpmat import build_matrix_set

    model = model_from(tree_doc(n, seed=7, trunk_bias=3))
    mats = build_matrix_set(model)
    V = random_state(model, seed=100)
    plan = separate(model, detect_topology(model), size)
    plan.policy = "update"
    heads = [model.node_of(sub[0], "A") for sub in plan.sub_networks]
    plan.anchors = [
        Anchor(sub=k, bus=sub[0], phase="A",
               ref_angle_deg=float(np.degrees(np.angle(V[node]))))
        for k, (sub, node) in enumerate(zip(plan.sub_networks, heads))
    ]
    if full:
        entries = full_plan(model, mats)
    else:
        vm = [model.node_of(f"b{i}", "A") for i in vmag_buses]
        entries = default_plan(model, mats, vm)
        ties = set(plan.tie_lines)
        for br in model.branches:
            if br.id in ties:
                for kind in ("P_flow", "Q_flow"):
                    for a, b in ((br.from_node, br.to_node), (br.to_node, br.from_node)):
                        if (kind, a, b) not in entries:
                            entries.append((kind, a, b))
    meas = synthesize(
        model, mats, state_to_X(V), entries, NoiseSpec(level=level, seed=noise_seed)
    )
    pmu = np.random.default_rng(noise_seed).standard_normal(len(heads))
    if not level:
        pmu[:] = 0.0
    meas += [
        Measurement("Vmag", node, float(abs(V[node]) + 1e-5 * g), 1e-5)
        for node, g in zip(heads, pmu)
    ]
    return model, V, meas, plan
