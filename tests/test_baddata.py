import math
import random
from dataclasses import replace

import numpy as np
import pytest

import netgen
import sdpse.baddata
from test_sdpmat import dense
from sdpse.baddata import (
    _replace_from_identity,
    compute_redundancy_residuals,
    detect,
    identify_and_reestimate,
    prefilter_obvious,
    run_bad_data,
)
from sdpse.errors import BudgetExceededError, ValidationError
from sdpse.measurements import (
    Measurement,
    NoiseSpec,
    default_plan,
    full_plan,
    state_to_X,
    synthesize,
)
from sdpse.observability import analyze
from sdpse.sdpmat import build_matrix_set


@pytest.fixture(scope="module")
def redundant_case():
    model = netgen.model_from(netgen.chain_doc(6, seed=21))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=22)
    meas = synthesize(
        model, mats, state_to_X(V), full_plan(model, mats), NoiseSpec(level=0, seed=0)
    )
    return model, mats, V, meas


def corrupt(meas, kind, node, delta):
    out = list(meas)
    for i, m in enumerate(out):
        if m.kind == kind and m.node == node and m.far_node is None:
            out[i] = Measurement(
                kind=m.kind, node=m.node, value=m.value + delta, sigma=m.sigma
            )
            return out, i
    raise AssertionError("measurement not found")


def test_clean_data_triggers_nothing(redundant_case):
    model, mats, V, meas = redundant_case
    residuals = compute_redundancy_residuals(model, mats, meas)
    # Node identities for every node, branch identities for every branch.
    n, b = model.n_nodes, model.n_closed_branches
    assert len(residuals) == 2 * n + 2 * b
    assert max(abs(r.u) for r in residuals) < 1e-9
    assert detect(model, mats, meas) == []


def test_gross_injection_error_flags_node_identity(redundant_case):
    model, mats, V, meas = redundant_case
    bad, idx = corrupt(meas, "P_inj", 3, 0.4)
    suspects = detect(model, mats, bad)
    assert len(suspects) == 1
    s = suspects[0]
    assert s.trigger.kind == "node_P"
    assert s.trigger.location == (3,)
    assert idx in s.members
    # Members are exactly the injection plus the incident flows.
    assert len(s.members) == 3


def test_detection_monotone_in_threshold(redundant_case):
    model, mats, V, meas = redundant_case
    bad, _ = corrupt(meas, "P_inj", 3, 0.4)
    counts = [len(detect(model, mats, bad, threshold=t)) for t in (1.0, 3.0, 10.0, 1e6)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0
    with pytest.raises(ValidationError):
        detect(model, mats, meas, threshold=0.0)


def test_replace_from_identity_solves_node_balance(redundant_case):
    model, mats, V, meas = redundant_case
    bad, idx = corrupt(meas, "P_inj", 3, 0.4)
    s = detect(model, mats, bad)[0]
    rep = _replace_from_identity(list(bad), s.trigger, idx)
    # The identity reconstructs the pre-corruption value.
    assert rep.value == pytest.approx(meas[idx].value, abs=1e-9)
    assert rep.sigma > 0


def test_replace_from_identity_magnitude_channel(redundant_case):
    model, mats, V, meas = redundant_case
    residuals = compute_redundancy_residuals(model, mats, meas)
    drop = [r for r in residuals if r.kind == "branch_2"][0]
    vm_idx = drop.members[-1]
    rep = _replace_from_identity(list(meas), drop, vm_idx)
    assert rep.value == pytest.approx(meas[vm_idx].value, abs=1e-9)


def test_identify_recovers_culprit(redundant_case):
    model, mats, V, meas = redundant_case
    bad, idx = corrupt(meas, "P_inj", 3, 0.4)
    suspects = detect(model, mats, bad)
    culprits, result, evaluated = identify_and_reestimate(
        model, mats, bad, suspects, anchors=[0]
    )
    assert culprits == [idx]
    assert evaluated == len(suspects[0].members)
    assert np.max(np.abs(np.abs(result.V) - np.abs(V))) < 1e-4


def test_identify_skips_a_combination_whose_solve_fails(redundant_case, monkeypatch):
    # The combinations are solved in one batch; one whose solve fails is
    # skipped, the others are scored as before.
    model, mats, V, meas = redundant_case
    bad, idx = corrupt(meas, "P_inj", 3, 0.4)
    suspects = detect(model, mats, bad)
    solve_many = sdpse.baddata.solve_many
    batches = []

    def failing_first(problems, config=None):
        reports = solve_many(problems, config)
        batches.append(len(problems))
        # Fail a combination that does not replace the culprit.
        replaced = [p.measurements[idx] != bad[idx] for p in problems]
        failed = 1 if replaced[0] else 0
        reports[failed] = replace(reports[failed], status="numerical_failure")
        return reports

    monkeypatch.setattr(sdpse.baddata, "solve_many", failing_first)
    culprits, result, evaluated = identify_and_reestimate(
        model, mats, bad, suspects, anchors=[0]
    )
    assert batches == [evaluated] == [len(suspects[0].members)]
    assert culprits == [idx]
    assert np.max(np.abs(np.abs(result.V) - np.abs(V))) < 1e-4


def test_identify_requires_suspects(redundant_case):
    model, mats, V, meas = redundant_case
    with pytest.raises(ValidationError, match="suspect"):
        identify_and_reestimate(model, mats, meas, [], anchors=[0])


def test_combination_budget(redundant_case):
    model, mats, V, meas = redundant_case
    noisy = synthesize(
        model,
        mats,
        state_to_X(V),
        full_plan(model, mats),
        NoiseSpec(level=3, seed=5),
    )
    suspects = detect(model, mats, noisy, threshold=1e-4)
    assert len(suspects) > 3
    with pytest.raises(BudgetExceededError, match="budget"):
        identify_and_reestimate(
            model, mats, noisy, suspects, anchors=[0], max_combinations=8
        )


def test_prefilter_obvious():
    meas = [
        Measurement("P_inj", 0, float("nan"), 0.015),
        Measurement("Vmag", 1, -0.2, 0.01),
        Measurement("Vmag", 2, 1.0, 0.01),
    ]
    kept, removed = prefilter_obvious(meas)
    assert len(kept) == 1
    reasons = {r["reason"] for r in removed}
    assert reasons == {"non-finite value", "non-positive magnitude"}


def test_run_bad_data_end_to_end(redundant_case):
    model, mats, V, meas = redundant_case
    bad, idx = corrupt(meas, "P_inj", 3, 0.4)
    report, result = run_bad_data(model, mats, bad, anchors=[0])
    assert [c["index"] for c in report["culprits"]] == [idx]
    assert report["combinations_evaluated"] >= 1
    assert report["removed_obvious"] == []
    assert np.max(np.abs(np.abs(result.V) - np.abs(V))) < 1e-4


def test_run_bad_data_clean_path(redundant_case):
    model, mats, V, meas = redundant_case
    report, result = run_bad_data(model, mats, meas, anchors=[0])
    assert report["suspects"] == []
    assert report["culprits"] == []
    assert report["combinations_evaluated"] == 0
    assert np.max(np.abs(np.abs(result.V) - np.abs(V))) < 1e-5


@pytest.mark.parametrize("threshold", [0.0, -1.0])
def test_run_bad_data_rejects_non_positive_threshold(redundant_case, threshold):
    model, mats, V, meas = redundant_case
    with pytest.raises(ValidationError, match="threshold must be positive"):
        run_bad_data(model, mats, meas, anchors=[0], threshold=threshold)


def test_reduced_jacobian_normal_matrix_is_singular():
    """The full measurement set maps onto fewer independent rows than the
    distinct unknowns, so the normal matrix of the reduced Jacobian cannot be
    inverted; sensitivity-based identification is a dead end here."""
    model = netgen.model_from(netgen.chain_doc(5, seed=30))
    mats = build_matrix_set(model)
    n = model.n_nodes
    columns = {}
    for k in range(n):
        for key in ((k, k), (n + k, n + k), (k, n + k)):
            columns.setdefault(key, len(columns))
    for (l, m) in sorted(mats.pairs):
        if l > m:
            continue
        for key in ((l, m), (n + l, n + m), (l, n + m), (m, n + l)):
            columns.setdefault(key, len(columns))
    from sdpse.measurements import full_plan as fp

    plan = fp(model, mats)
    J = np.zeros((len(plan), len(columns)))
    for i, (kind, node, far) in enumerate(plan):
        D = dense(mats, kind, node, far)
        for (p, q), j in columns.items():
            J[i, j] = D[p, q] if p == q else D[p, q] + D[q, p]
    normal = J.T @ J
    assert len(columns) == 3 * n + 4 * model.n_closed_branches
    rank = np.linalg.matrix_rank(normal)
    assert rank < len(columns)


def shunted_chain_doc():
    doc = netgen.chain_doc(8, seed=23)
    doc["branches"][2]["shunt_b"] = 0.05
    doc["branches"][5]["shunt_b"] = 0.02
    return doc


def identity_case(doc, plan_kind, level):
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=24)
    plan = full_plan(model, mats)
    if plan_kind == "partial":
        rng = random.Random(25)
        plan = [e for e in plan if rng.random() < 0.85] + default_plan(model, mats)
    meas = synthesize(model, mats, state_to_X(V), plan, NoiseSpec(level=level, seed=26))
    return model, mats, meas


IDENTITY_CASES = [
    pytest.param(lambda: netgen.chain_doc(6, seed=21), "full", id="chain-full"),
    pytest.param(lambda: netgen.tree_doc(30, seed=27), "partial", id="tree-partial"),
    pytest.param(netgen.multiphase_feeder_doc, "full", id="multiphase-full"),
    pytest.param(shunted_chain_doc, "full", id="shunted-chain-full"),
]


@pytest.mark.parametrize("make_doc, plan_kind", IDENTITY_CASES)
def test_observability_and_baddata_share_identities(make_doc, plan_kind):
    model, mats, meas = identity_case(make_doc(), plan_kind, level=0)
    names = {"P": "node_P", "Q": "node_Q", "loss": "branch_1", "voltage_drop": "branch_2"}
    points = [
        (names[p["quantity"]], [p["node"]])
        if p["type"] == "node"
        else (names[p["identity"]], [p["from"], p["to"]])
        for p in analyze(model, mats, meas).redundancy_points
    ]
    residuals = [
        (r.kind, [model.node_name(k) for k in r.location])
        for r in compute_redundancy_residuals(model, mats, meas)
    ]
    assert points == residuals
    assert {kind for kind, _ in residuals} >= {"node_P", "node_Q", "branch_1"}


def closed_form_branch(model, meas, kind, l, m):
    """Loss (branch_1) or voltage-drop (branch_2) residual of pair (l, m) and
    its sigma in closed form, with y = ybus[l, m]."""
    at = {(x.kind, x.node, x.far_node): x for x in meas}
    plm, pml = at[("P_flow", l, m)], at[("P_flow", m, l)]
    qlm, qml = at[("Q_flow", l, m)], at[("Q_flow", m, l)]
    y = model.ybus[l, m]
    gi, gr = y.imag, y.real
    if kind == "branch_1":
        u = gi * (plm.value + pml.value) + gr * (qlm.value + qml.value)
        var = gi * gi * (plm.variance + pml.variance) + gr * gr * (
            qlm.variance + qml.variance
        )
    else:
        vl, vm = at[("Vmag", l, None)], at[("Vmag", m, None)]
        y2 = abs(y) ** 2
        u = (
            gr * (plm.value - pml.value)
            - gi * (qlm.value - qml.value)
            - y2 * (vl.value**2 - vm.value**2)
        )
        var_vdiff = (2 * vl.value * vl.sigma) ** 2 + (2 * vm.value * vm.sigma) ** 2
        var = (
            gr * gr * (plm.variance + pml.variance)
            + gi * gi * (qlm.variance + qml.variance)
            + y2 * y2 * var_vdiff
        )
    return u, math.sqrt(max(var, 1e-18))


@pytest.mark.parametrize("level", [0, 3])
@pytest.mark.parametrize("make_doc, plan_kind", IDENTITY_CASES)
def test_branch_residuals_match_closed_form(make_doc, plan_kind, level):
    model, mats, meas = identity_case(make_doc(), plan_kind, level)
    branch = [
        r for r in compute_redundancy_residuals(model, mats, meas)
        if r.kind in ("branch_1", "branch_2")
    ]
    assert branch
    for r in branch:
        u, sigma = closed_form_branch(model, meas, r.kind, *r.location)
        assert r.sigma == pytest.approx(sigma, rel=1e-9)
        # Relative to the residual's own scale: at level 0, u is rounding.
        assert r.u == pytest.approx(u, rel=1e-9, abs=1e-9 * sigma)
