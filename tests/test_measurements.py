import math

import numpy as np
import pytest

import netgen
from test_sdpmat import dense
from sdpse.errors import ValidationError
from sdpse.measurements import (
    DEFAULT_SIGMA,
    NOISE_LEVELS,
    Measurement,
    NoiseSpec,
    add_zero_injection,
    analytic_variance_bound,
    default_plan,
    full_plan,
    load_measurements,
    load_state,
    measurements_from_doc,
    measurements_to_doc,
    pseudo_analytic,
    pseudo_efficiency,
    pseudo_negate,
    repair_observability,
    save_measurements,
    save_state,
    state_from_doc,
    state_to_X,
    synthesize,
)
from sdpse.sdpmat import PairData, build_matrix_set


@pytest.fixture
def chain6():
    model = netgen.model_from(netgen.chain_doc(6, seed=9))
    return model, build_matrix_set(model)


def test_measurement_validation():
    with pytest.raises(ValidationError):
        Measurement("P_inj", 0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        Measurement("P_flow", 0, 1.0, 0.1)  # missing far_node
    with pytest.raises(ValidationError):
        Measurement("Vmag", 0, 1.0, 0.1, far_node=1)
    with pytest.raises(ValidationError):
        Measurement("P_woo", 0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        Measurement("P_inj", 0, 1.0, 0.1, provenance="guess")


def test_noise_spec_levels_and_fallback():
    with pytest.raises(ValidationError):
        NoiseSpec()
    with pytest.raises(ValidationError):
        NoiseSpec(level=2, table={"Vmag": 0.1})
    with pytest.raises(ValidationError):
        NoiseSpec(level=7)
    spec = NoiseSpec(level=0)
    for kind in NOISE_LEVELS:
        assert spec.noise_sigma(kind) == 0.0
        assert spec.recorded_sigma(kind) == DEFAULT_SIGMA[kind]
    spec3 = NoiseSpec(level=3)
    assert spec3.noise_sigma("Vmag") == 1e-3
    assert spec3.recorded_sigma("Vmag") == 1e-3
    table = NoiseSpec(table={"P_inj": 0.05})
    assert table.noise_sigma("P_inj") == 0.05
    assert table.noise_sigma("Vmag") == 0.0
    assert table.recorded_sigma("Vmag") == DEFAULT_SIGMA["Vmag"]


def test_default_plan_is_one_sided(chain6):
    model, mats = chain6
    plan = default_plan(model, mats)
    flows = {(k, n, f) for k, n, f in plan if f is not None}
    for kind, n, f in flows:
        assert (kind, f, n) not in flows
    # feeder-head injection and magnitude present
    assert ("P_inj", 0, None) in plan
    assert ("Vmag", 0, None) in plan


def test_full_plan_covers_everything(chain6):
    model, mats = chain6
    plan = full_plan(model, mats)
    n, m = model.n_nodes, len(mats.pairs) // 2
    assert len(plan) == 4 * m + 3 * n


def test_synthesize_exact_at_level_zero(chain6):
    model, mats = chain6
    V = netgen.random_state(model, seed=2)
    X = state_to_X(V)
    meas = synthesize(model, mats, X, full_plan(model, mats), NoiseSpec(level=0, seed=1))
    for m in meas:
        if m.kind == "Vmag":
            assert m.value == pytest.approx(abs(V[m.node]), abs=1e-12)
        else:
            D = dense(mats, m.kind, m.node, m.far_node)
            assert m.value == pytest.approx(X @ D @ X, abs=1e-12)
        assert m.sigma == DEFAULT_SIGMA[m.kind]


def test_synthesize_deterministic_per_seed(chain6):
    model, mats = chain6
    V = netgen.random_state(model, seed=2)
    X = state_to_X(V)
    plan = default_plan(model, mats)
    a = synthesize(model, mats, X, plan, NoiseSpec(level=2, seed=42))
    b = synthesize(model, mats, X, plan, NoiseSpec(level=2, seed=42))
    c = synthesize(model, mats, X, plan, NoiseSpec(level=2, seed=43))
    assert [m.value for m in a] == [m.value for m in b]
    assert [m.value for m in a] != [m.value for m in c]


def test_zero_injection_records(chain6):
    model, _ = chain6
    zi = add_zero_injection(model, ["b2", "b3"])
    assert len(zi) == 4
    assert all(m.value == 0.0 and m.sigma == 1e-4 for m in zi)
    assert all(m.provenance == "zero_injection" for m in zi)
    with pytest.raises(ValidationError):
        add_zero_injection(model, ["nope"])


def test_pseudo_negate_sigma_rules():
    base = Measurement("P_flow", 0, 0.5, 0.02, far_node=1)
    lossless = PairData(series=1.0 / 0.05j, shunt_at_from=0j)
    p = pseudo_negate(base, lossless)
    assert p.value == -0.5
    assert p.node == 1 and p.far_node == 0
    assert p.sigma == 0.02
    assert p.provenance == "pseudo"
    lossy = PairData(series=1.0 / (0.01 + 0.05j), shunt_at_from=0j)
    assert pseudo_negate(base, lossy).sigma == pytest.approx(20.0)
    # Reactive flow on a purely reactive branch is lossy for Q.
    qbase = Measurement("Q_flow", 0, 0.3, 0.02, far_node=1)
    assert pseudo_negate(qbase, lossless).sigma == pytest.approx(20.0)


def test_pseudo_efficiency_direction_dependence():
    pair = PairData(series=1.0 / (0.01 + 0.05j), shunt_at_from=0j)
    fwd = Measurement("P_flow", 0, 0.95, 0.02, far_node=1)
    rev = Measurement("P_flow", 0, -0.95, 0.02, far_node=1)
    assert pseudo_efficiency(fwd, pair, 0.95).value == pytest.approx(-1.0)
    assert pseudo_efficiency(rev, pair, 0.95).value == pytest.approx(0.9025)
    assert pseudo_efficiency(fwd, pair, 0.95).sigma == pytest.approx(20.0)
    with pytest.raises(ValidationError):
        pseudo_efficiency(fwd, pair, 0.0)


def test_analytic_variance_bound_dominates_monte_carlo():
    rng = np.random.default_rng(7)
    p, q, sp, sq, v, sv, r = 0.8, -0.3, 0.015, 0.015, 1.02, 0.01, 0.04
    bound = analytic_variance_bound(p, q, sp, sq, v, sv, r)
    n = 200_000
    P = p + sp * rng.standard_normal(n)
    Q = q + sq * rng.standard_normal(n)
    V = v + sv * rng.standard_normal(n)
    samples = -P - r * (P * P + Q * Q) / (V * V)
    assert samples.var() <= bound


def test_analytic_variance_bound_precondition():
    with pytest.raises(ValidationError, match="3 sigma_V"):
        analytic_variance_bound(0.5, 0.1, 0.01, 0.01, 0.02, 0.01, 0.05)


def test_pseudo_analytic_value():
    z = 0.02 + 0.06j
    pair = PairData(series=1.0 / z, shunt_at_from=0j)
    mp = Measurement("P_flow", 0, 0.6, 0.02, far_node=1)
    mq = Measurement("Q_flow", 0, 0.2, 0.02, far_node=1)
    vm = Measurement("Vmag", 0, 1.01, 0.01)
    ps = pseudo_analytic(mp, mq, pair, vm, "P_flow")
    expected = -0.6 - z.real * (0.6**2 + 0.2**2) / 1.01**2
    assert ps.value == pytest.approx(expected)
    assert ps.kind == "P_flow" and ps.node == 1
    assert ps.sigma == pytest.approx(
        math.sqrt(analytic_variance_bound(0.6, 0.2, 0.02, 0.02, 1.01, 0.01, z.real))
    )
    # No magnitude reading: unit magnitude assumed, sigma inflated instead.
    ps2 = pseudo_analytic(mp, mq, pair, None, "P_flow")
    assert ps2.sigma == pytest.approx(20.0)


@pytest.mark.parametrize("method", ["negate", "efficiency", "analytic"])
def test_repair_covers_all_one_sided_pairs(chain6, method):
    model, mats = chain6
    V = netgen.random_state(model, seed=3)
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats), NoiseSpec(level=0, seed=0)
    )
    repaired, log = repair_observability(model, mats, meas, method)
    assert len(log) == model.n_closed_branches
    covered = {(m.node, m.far_node) for m in repaired if m.far_node is not None}
    for (l, m) in mats.pairs:
        assert (l, m) in covered
    # Idempotent: nothing more to add.
    again, log2 = repair_observability(model, mats, repaired, method)
    assert len(again) == len(repaired)
    assert log2 == []


def test_repair_unknown_method(chain6):
    model, mats = chain6
    with pytest.raises(ValidationError, match="repair method"):
        repair_observability(model, mats, [], "magic")


def test_measurement_doc_roundtrip(tmp_path, chain6):
    model, mats = chain6
    V = netgen.random_state(model, seed=4)
    meas = synthesize(
        model, mats, state_to_X(V), default_plan(model, mats), NoiseSpec(level=1, seed=5)
    )
    path = tmp_path / "meas.json"
    save_measurements(str(path), model, meas)
    back = load_measurements(str(path), model)
    assert back == meas


def test_measurement_doc_rejects_unknown_keys(chain6):
    model, _ = chain6
    doc = measurements_to_doc(model, [Measurement("Vmag", 0, 1.0, 0.01)])
    doc[0]["quality"] = "good"
    with pytest.raises(ValidationError, match="unknown keys"):
        measurements_from_doc(model, doc)


@pytest.mark.parametrize("key", ["phase", "to_phase"])
def test_measurement_doc_rejects_wrongly_typed_phase(chain6, key):
    model, _ = chain6
    doc = measurements_to_doc(
        model, [Measurement("P_flow", 0, 0.1, 0.01, far_node=1)]
    )
    doc[0][key] = ["A"]
    with pytest.raises(ValidationError, match=f"measurement 0: {key} must be a phase name"):
        measurements_from_doc(model, doc)


def test_state_doc_rejects_wrongly_typed_phase(chain6):
    model, _ = chain6
    doc = [{"bus": "b0", "phase": ["A"], "mag_pu": 1.0, "angle_deg": 0.0}]
    with pytest.raises(ValidationError, match="state record 0: phase must be a phase name"):
        state_from_doc(model, doc)


def test_state_doc_roundtrip_and_missing_node(tmp_path, chain6):
    model, _ = chain6
    V = netgen.random_state(model, seed=6)
    path = tmp_path / "state.json"
    save_state(str(path), model, V)
    back = load_state(str(path), model)
    assert np.allclose(back, V, atol=1e-12)
    import json

    doc = json.loads(path.read_text())
    doc.pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="missing nodes"):
        load_state(str(path), model)
