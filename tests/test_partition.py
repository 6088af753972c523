from dataclasses import replace

import numpy as np
import pytest

import netgen
from sdpse.errors import UnobservableError, ValidationError
from sdpse.measurements import (
    Measurement,
    NoiseSpec,
    default_plan,
    state_to_X,
    synthesize,
)
from sdpse.partition import (
    Anchor,
    PartitionPlan,
    _restrict_measurements,
    anchor_from_doc,
    detect_topology,
    estimate_decoupled,
    load_plan,
    plan_from_doc,
    propose_anchors,
    save_plan,
    separate,
    separate_on_switches,
    validate_plan,
)
import sdpse.partition
from sdpse.pipeline import estimate, estimate_with_plan
from sdpse.sdpmat import build_matrix_set


def test_detect_topology_chain():
    model = netgen.model_from(netgen.chain_doc(6))
    topo = detect_topology(model)
    assert topo.order == [f"b{i}" for i in range(6)]
    assert topo.parent["b0"] is None
    assert topo.parent["b3"] == "b2"

    def ancestors(b):
        out = []
        while topo.parent[b] is not None:
            b = topo.parent[b]
            out.append(b)
        return out

    assert ancestors("b3") == ["b2", "b1", "b0"]
    # Descendant counts.
    assert sum("b0" in ancestors(b) for b in topo.order) == 5
    assert sum("b5" in ancestors(b) for b in topo.order) == 0


def test_detect_topology_handles_meshes():
    model = netgen.model_from(netgen.tree_doc(12, seed=5, meshed_extra=3))
    topo = detect_topology(model)
    assert len(topo.order) == 12
    # Spanning tree: every non-root bus has exactly one parent.
    roots = [b for b, p in topo.parent.items() if p is None]
    assert roots == ["b0"]


def test_separate_chain_of_six_into_threes():
    model = netgen.model_from(netgen.chain_doc(6))
    plan = separate(model, detect_topology(model), 3)
    assert plan.sub_networks == [["b3", "b4", "b5"], ["b0", "b1", "b2"]]
    assert len(plan.tie_lines) == 1
    assert plan.anchors == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("d", [3, 7])
def test_separate_properties_on_random_trees(seed, d):
    model = netgen.model_from(netgen.tree_doc(40, seed=seed))
    plan = separate(model, detect_topology(model), d)
    validate_plan(model, plan)  # disjoint, covering, connected
    # Trees: number of tie-lines is one less than the number of sub-networks.
    assert len(plan.tie_lines) == len(plan.sub_networks) - 1


def test_separate_on_switches():
    doc = netgen.chain_doc(6)
    for idx in (1, 3):
        doc["branches"][idx]["is_switch"] = True
        doc["branches"][idx]["closed"] = True
    model = netgen.model_from(doc)
    plan = separate_on_switches(model)
    assert sorted(map(tuple, plan.sub_networks)) == [
        ("b0", "b1"), ("b2", "b3"), ("b4", "b5")
    ]
    assert sorted(plan.tie_lines) == ["l1", "l3"]


def test_propose_anchors_one_per_sub():
    model = netgen.model_from(netgen.tree_doc(20, seed=4))
    plan = separate(model, detect_topology(model), 6)
    anchors = propose_anchors(model, plan)
    assert [a.sub for a in anchors] == list(range(len(plan.sub_networks)))
    for a in anchors:
        assert a.bus in plan.sub_networks[a.sub]


def test_validate_plan_rejects_bad_plans():
    model = netgen.model_from(netgen.chain_doc(4))
    with pytest.raises(ValidationError, match="two sub-networks"):
        validate_plan(model, PartitionPlan([["b0", "b1"], ["b1", "b2", "b3"]], []))
    with pytest.raises(ValidationError, match="does not cover"):
        validate_plan(model, PartitionPlan([["b0", "b1"]], []))
    with pytest.raises(ValidationError, match="not connected"):
        validate_plan(model, PartitionPlan([["b0", "b2"], ["b1", "b3"]], []))
    plan = PartitionPlan([["b0", "b1"], ["b2", "b3"]], [])
    plan.anchors = [Anchor(sub=0, bus="b2", phase="A")]
    with pytest.raises(ValidationError, match="anchor bus"):
        validate_plan(model, plan)


def test_plan_file_roundtrip(tmp_path):
    plan = PartitionPlan(
        sub_networks=[["b0", "b1"], ["b2"]],
        tie_lines=["l1"],
        anchors=[Anchor(sub=1, bus="b2", phase="A", ref_angle_deg=-0.4)],
        policy="update",
    )
    path = tmp_path / "plan.json"
    save_plan(str(path), plan)
    back = load_plan(str(path))
    assert back.sub_networks == plan.sub_networks
    assert back.tie_lines == plan.tie_lines
    assert back.policy == "update"
    assert back.anchors[0].ref_angle_deg == pytest.approx(-0.4)


def test_plan_doc_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown keys"):
        plan_from_doc({"sub_networks": [], "extra": 1})
    with pytest.raises(ValidationError, match="unknown keys"):
        plan_from_doc({"anchors": [{"sub": 0, "bus": "b0", "color": "red"}]})


def build_chain_case(n=8, seed=2, level=0):
    model = netgen.model_from(netgen.chain_doc(n, seed=seed))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=seed)
    half = model.node_of(f"b{n // 2}", "A")
    plan_entries = default_plan(model, mats, vmag_nodes=[0, half])
    meas = synthesize(
        model, mats, state_to_X(V), plan_entries, NoiseSpec(level=level, seed=seed)
    )
    return model, mats, V, meas


def test_decoupled_matches_monolithic_at_zero_noise():
    model, mats, V, meas = build_chain_case()
    mono = estimate(model, meas, anchors=[0])
    plan = separate(model, detect_topology(model), 4)
    anchors = []
    for k, sub in enumerate(plan.sub_networks):
        bus = sub[0]
        node = model.node_of(bus, "A")
        anchors.append(
            Anchor(sub=k, bus=bus, phase="A",
                   ref_angle_deg=float(np.degrees(np.angle(V[node]))))
        )
    plan.anchors = anchors
    V_dec, reports = estimate_decoupled(model, meas, plan)
    assert len(reports) == len(plan.sub_networks)
    assert np.max(np.abs(np.abs(V_dec) - np.abs(V))) < 1e-5
    assert np.max(np.abs(np.abs(mono.V) - np.abs(V))) < 1e-5
    ang = np.degrees(np.angle(V_dec * np.conj(V)))
    assert np.max(np.abs(ang)) < 1e-3


def test_decoupled_ignores_the_order_of_sub_networks():
    # The partitioned-feeder plan solves its twelve sub-networks as one
    # forest; listing them in reverse order lays the forest out the other
    # way round, not the merged state.
    model, V, meas, plan = netgen.anchored_plan_case(96, 8)
    last = len(plan.sub_networks) - 1
    reverse = PartitionPlan(
        sub_networks=plan.sub_networks[::-1],
        tie_lines=plan.tie_lines,
        anchors=[replace(a, sub=last - a.sub) for a in plan.anchors],
        policy=plan.policy,
    )
    V_dec, reports = estimate_decoupled(model, meas, plan)
    V_rev, reports_rev = estimate_decoupled(model, meas, reverse)
    assert [r.status for r in reports + reports_rev] == ["converged"] * 24
    np.testing.assert_allclose(V_rev, V_dec, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "statuses, merged",
    [({}, "converged"), ({3: "stalled", 7: "max_iter"}, "stalled"), ({5: "max_iter"}, "max_iter")],
    ids=["converged", "stalled-first", "max-iter"],
)
def test_merged_status_is_the_first_unconverged_sub_networks(statuses, merged, monkeypatch):
    # The merged estimate reports the first sub-network, in plan order, that
    # did not converge, with that sub-network's own status.
    model, V, meas, plan = netgen.anchored_plan_case(96, 8)
    solve_many = sdpse.partition.solve_many

    def marked(problems, config=None):
        reports = solve_many(problems, config)
        return [replace(r, status=statuses.get(k, r.status)) for k, r in enumerate(reports)]

    monkeypatch.setattr(sdpse.partition, "solve_many", marked)
    result = estimate_with_plan(model, meas, plan)
    assert result.status == merged
    assert [s.status for s in result.sub_reports] == [
        statuses.get(k, "converged") for k in range(len(plan.sub_networks))
    ]


def test_decoupled_forest_matches_monolithic_and_truth_at_zero_noise():
    # The full plan at L0 on the partitioned-feeder plan: the sub-networks
    # solved as one forest, the whole feeder and the truth agree.
    model, V, meas, plan = netgen.anchored_plan_case(96, 8, level=0, full=True)
    V_dec, _ = estimate_decoupled(model, meas, plan)
    mono = estimate(model, meas, anchors=[0])
    np.testing.assert_allclose(V_dec, mono.V, rtol=0, atol=1e-8)
    np.testing.assert_allclose(V_dec, V, rtol=0, atol=1e-8)


def one_sided_chain_plan():
    """A 12-bus chain with a magnitude reading at every bus but one-sided
    flows, split into three sub-networks of 4 buses, each anchored at its
    first bus at the true angle.  Decoupled estimation without repair solved
    each sub-network anyway (all three converged), though observability
    analysis finds one-sided branches in every one."""
    model = netgen.model_from(netgen.chain_doc(12))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=1)
    entries = default_plan(model, mats, vmag_nodes=list(range(model.n_nodes)))
    meas = synthesize(model, mats, state_to_X(V), entries, NoiseSpec(level=0, seed=0))
    plan = separate(model, detect_topology(model), 4)
    plan.anchors = [
        Anchor(sub=k, bus=sub[0], phase="A",
               ref_angle_deg=float(np.degrees(np.angle(V[model.node_of(sub[0], "A")]))))
        for k, sub in enumerate(plan.sub_networks)
    ]
    return model, V, meas, plan


def test_decoupled_no_repair_turns_gaps_into_errors():
    model, V, meas, plan = one_sided_chain_plan()
    assert len(plan.sub_networks) == 3
    with pytest.raises(UnobservableError, match="sub-network 0: one-sided flow"):
        estimate_decoupled(model, meas, plan, repair_method=None)
    # With repair each sub-network gets its far-end readings and is solved.
    _, results = estimate_decoupled(model, meas, plan)
    assert [r.status for r in results] == ["converged"] * 3
    assert all(r.repair_log for r in results)


def test_decoupled_requires_anchors():
    model, mats, V, meas = build_chain_case()
    plan = separate(model, detect_topology(model), 4)
    with pytest.raises(ValidationError, match="anchor"):
        estimate_decoupled(model, meas, plan)


def test_tie_policy_update_folds_flow_into_injection():
    model = netgen.model_from(netgen.chain_doc(4))
    node_map = {0: 0, 1: 1}  # sub covers b0, b1
    meas = [
        Measurement("P_inj", 1, 0.5, 0.015),
        Measurement("P_flow", 1, -0.2, 0.02, far_node=2),  # tie toward b2
        Measurement("P_flow", 0, 0.3, 0.02, far_node=1),
    ]
    kept = _restrict_measurements(model, meas, {"b0", "b1"}, node_map, "update")
    inj = [m for m in kept if m.kind == "P_inj"][0]
    assert inj.value == pytest.approx(0.3)
    assert inj.sigma == pytest.approx(np.hypot(0.015, 0.02))
    assert all(m.far_node != 2 for m in kept)
    # Under 'ignore' the tie flow is simply dropped.
    kept2 = _restrict_measurements(model, meas, {"b0", "b1"}, node_map, "ignore")
    inj2 = [m for m in kept2 if m.kind == "P_inj"][0]
    assert inj2.value == pytest.approx(0.5)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"anchors": [{"sub": 0, "phase": "A"}]}, "missing key 'bus'"),
        ({"anchors": [{"bus": "b0"}]}, "missing key 'sub'"),
        ({"anchors": [{"sub": 0, "bus": "b0", "ref_angle_deg": "north"}]}, "a number"),
        ({"anchors": [{"sub": 0, "bus": "b0", "ref_angle_deg": float("inf")}]},
         "finite"),
        ({"anchors": [{"sub": "first", "bus": "b0"}]}, "an integer"),
        ({"anchors": [{"sub": float("inf"), "bus": "b0"}]}, "an integer"),
        ({"anchors": ["b0"]}, "JSON object"),
        ({"policy": "merge"}, "policy"),
        ({"tie_lines": 3}, "tie_lines must be a JSON array"),
        ({"sub_networks": ["b0", "b1"]}, "arrays of bus ids"),
        (["b0"], "JSON object"),
    ],
)
def test_plan_doc_rejects_malformed_records(doc, message):
    with pytest.raises(ValidationError, match=message):
        plan_from_doc(doc)


def test_anchors_file_record_needs_bus_not_sub():
    assert anchor_from_doc({"bus": "b3"}, "anchors file", default_sub=-1) == Anchor(
        sub=-1, bus="b3", phase="A"
    )
    with pytest.raises(ValidationError, match="^anchors file: missing key 'bus'$"):
        anchor_from_doc({"sub": 0, "phase": "A"}, "anchors file", default_sub=-1)


def test_anchor_record_rejects_wrongly_typed_phase():
    with pytest.raises(ValidationError, match="^plan anchor: phase must be a phase name"):
        anchor_from_doc({"sub": 0, "bus": "b0", "phase": ["A"]}, "plan anchor")


def test_validate_plan_rejects_empty_sub_network():
    model = netgen.model_from(netgen.chain_doc(4))
    with pytest.raises(ValidationError, match="^sub-network 1 is empty$"):
        validate_plan(model, PartitionPlan([["b0", "b1", "b2", "b3"], []], []))
