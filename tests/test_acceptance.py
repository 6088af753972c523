"""End-to-end acceptance suite.

One test per criterion, in order.  The heavy shared experiment (the 102-bus
radial study) runs once in a module fixture and feeds two tests.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import netgen
from test_sdpmat import check_network_identities, dense

from sdpse.cli import main as cli_main
from sdpse.errors import UnobservableError
from sdpse.measurements import (
    Measurement,
    NoiseSpec,
    analytic_variance_bound,
    default_plan,
    full_plan,
    save_state,
    state_to_X,
    synthesize,
)
from sdpse.baddata import run_bad_data
from sdpse.partition import (
    Anchor,
    detect_topology,
    estimate_decoupled,
    separate,
    validate_plan,
)
from sdpse.pipeline import estimate
from sdpse.rand import normal_stream, subseed
from sdpse.sdpmat import build_matrix_set, count_variables
from sdpse.solver import SolverConfig
from sdpse.stats import compute_error_stats


def _batched_quad(A, X):
    """X[:, s]^T A X[:, s] for every column s at once, A dense."""
    return np.einsum("ps,pq,qs->s", X, A, X, optimize=True)


def test_c01_matrix_identities_and_complex_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for case in range(25):
        n_buses = int(rng.integers(5, 41))
        meshed = int(rng.integers(0, 4)) if case % 2 else 0
        doc = netgen.tree_doc(n_buses, seed=1000 + case, meshed_extra=meshed)
        model = netgen.model_from(doc)
        mats = build_matrix_set(model)
        check_network_identities(model, mats, tol=1e-12)

        n = model.n_nodes
        Vs = rng.normal(size=(n, 1000)) + 1j * rng.normal(size=(n, 1000))
        X = np.vstack([Vs.real, Vs.imag])
        inj = Vs * np.conj(model.ybus @ Vs)
        for k in range(n):
            scale = np.maximum(np.abs(inj[k]), 1.0)
            p = _batched_quad(dense(mats, "P_inj", k), X)
            q = _batched_quad(dense(mats, "Q_inj", k), X)
            assert np.max(np.abs(p - inj[k].real) / scale) < 1e-10
            assert np.max(np.abs(q - inj[k].imag) / scale) < 1e-10
            v2 = _batched_quad(dense(mats, "Vmag", k), X)
            truth = np.abs(Vs[k]) ** 2
            assert np.max(np.abs(v2 - truth) / np.maximum(truth, 1.0)) < 1e-10
        for (l, m), pd in mats.pairs.items():
            S = -Vs[l] * np.conj(
                (pd.series + pd.shunt_at_from) * Vs[l] - pd.series * Vs[m]
            )
            scale = np.maximum(np.abs(S), 1.0)
            p = _batched_quad(dense(mats, "P_flow", l, m), X)
            q = _batched_quad(dense(mats, "Q_flow", l, m), X)
            assert np.max(np.abs(p - S.real) / scale) < 1e-10
            assert np.max(np.abs(q - S.imag) / scale) < 1e-10
    assert time.monotonic() - t0 < 30.0


def test_c02_variable_counts():
    c = count_variables(41, 40)
    assert c["total_sym"] == 3403
    assert c["distinct"] == 283
    assert c["max_measurements"] == 283
    assert c["independent"] == 121
    assert count_variables(117, 457)["distinct"] == 2179


@pytest.fixture(scope="module")
def feeder():
    doc = netgen.multiphase_feeder_doc()
    model = netgen.model_from(doc)
    assert model.n_nodes == 38
    assert len(model.branches) == 107
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=42)
    vm = [
        model.node_of("650", "A"),
        model.node_of("671", "A"),
        model.node_of("675", "B"),
    ]
    return {
        "doc": doc,
        "model": model,
        "mats": mats,
        "V": V,
        "X": state_to_X(V),
        "anchor": model.node_of("650", "A"),
        "onesided": default_plan(model, mats, vmag_nodes=vm),
    }


def _assert_recovery(result, V_true):
    st = compute_error_stats(result.V, V_true)
    assert st.vmag_max <= 1e-5
    assert st.angle_max <= 1e-3
    assert result.rank1_ratio <= 1e-4


def test_c03_zero_noise_recovery_multiphase(feeder):
    model, mats = feeder["model"], feeder["mats"]
    for entries in (full_plan(model, mats), feeder["onesided"]):
        meas = synthesize(
            model, mats, feeder["X"], entries, NoiseSpec(level=0, seed=1)
        )
        t0 = time.monotonic()
        result = estimate(
            model, meas, anchors=[feeder["anchor"]], repair_method="negate",
            mats=mats,
        )
        assert time.monotonic() - t0 < 60.0
        _assert_recovery(result, feeder["V"])


def test_c04_one_sided_fails_without_repair(feeder):
    model, mats = feeder["model"], feeder["mats"]
    meas = synthesize(
        model, mats, feeder["X"], feeder["onesided"], NoiseSpec(level=0, seed=1)
    )
    with pytest.raises(UnobservableError):
        estimate(model, meas, anchors=[feeder["anchor"]], repair_method=None,
                 mats=mats)
    result = estimate(
        model, meas, anchors=[feeder["anchor"]], repair_method="negate",
        mats=mats,
    )
    _assert_recovery(result, feeder["V"])


@pytest.fixture(scope="module")
def radial_study():
    """102-bus radial fixture: monolithic runs at L1..L4 over 10 seeds
    (warm-started within a level), decoupled runs at L3/L4 with per-sub
    anchor instruments, and an L0 agreement pair."""
    doc = netgen.tree_doc(102, seed=7, trunk_bias=3)
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=100)
    X = state_to_X(V)

    plan = separate(model, detect_topology(model), 34)
    assert len(plan.sub_networks) == 3
    plan.policy = "update"
    anchors = []
    for k, sub in enumerate(plan.sub_networks):
        bus = sub[0]
        node = model.node_of(bus, "A")
        anchors.append(
            Anchor(
                sub=k,
                bus=bus,
                phase="A",
                ref_angle_deg=float(np.degrees(np.angle(V[node]))),
            )
        )
    plan.anchors = anchors
    anchor_nodes = [model.node_of(a.bus, a.phase) for a in anchors]

    vm = sorted({model.node_of(f"b{i}", "A") for i in (0, 25, 50, 75, 100)})
    entries = default_plan(model, mats, vmag_nodes=vm)
    # Meter the tie branches from both ends so the boundary-injection update
    # stays consistent with the restricted sub-models.
    tie_ids = set(plan.tie_lines)
    seen = set(entries)
    for br in model.branches:
        if br.id not in tie_ids:
            continue
        for kind in ("P_flow", "Q_flow"):
            for a, b in ((br.from_node, br.to_node), (br.to_node, br.from_node)):
                if (kind, a, b) not in seen:
                    entries.append((kind, a, b))
                    seen.add((kind, a, b))

    pmu_sigma = 1e-5

    def anchor_instruments(seed, level):
        noise = normal_stream(subseed(seed, "pmu"), len(anchor_nodes))
        scale = 0.0 if level == 0 else 1.0
        return [
            Measurement(
                "Vmag",
                nd,
                float(np.abs(V[nd]) + scale * pmu_sigma * noise[i]),
                pmu_sigma,
            )
            for i, nd in enumerate(anchor_nodes)
        ]

    sub_cfg = SolverConfig(convergence_tol=1e-5)
    mono = {}
    dec = {}
    for level in (1, 2, 3, 4):
        mono[level] = []
        dec[level] = []
        W_prev = None
        for seed in range(10):
            meas = synthesize(model, mats, X, entries, NoiseSpec(level=level, seed=seed))
            cfg = (
                SolverConfig(convergence_tol=1e-2)
                if W_prev is None
                else SolverConfig(convergence_tol=1e-2, initial_W=W_prev)
            )
            res = estimate(model, meas, anchors=[0], config=cfg, mats=mats)
            W_prev = res.W + 1e-6 * np.eye(2 * model.n_nodes)
            mono[level].append(compute_error_stats(res.V, V).vmag_rms)
            if level in (3, 4):
                Vd, _ = estimate_decoupled(
                    model, meas + anchor_instruments(seed, level), plan,
                    config=sub_cfg,
                )
                dec[level].append(compute_error_stats(Vd, V).vmag_rms)

    meas0 = synthesize(model, mats, X, entries, NoiseSpec(level=0, seed=0))
    res0 = estimate(model, meas0, anchors=[0], config=sub_cfg, mats=mats)
    Vd0, _ = estimate_decoupled(
        model, meas0 + anchor_instruments(0, 0), plan, config=sub_cfg
    )
    agreement = float(np.max(np.abs(np.abs(res0.V) - np.abs(Vd0))))
    return {"mono": mono, "dec": dec, "l0_agreement": agreement}


def test_c05_noise_sensitivity_ordering(radial_study):
    medians = [float(np.median(radial_study["mono"][lv])) for lv in (1, 2, 3, 4)]
    assert medians[0] < medians[1] < medians[2] < medians[3]


def test_c06_decoupling_benefit(radial_study):
    for level in (3, 4):
        dec_med = float(np.median(radial_study["dec"][level]))
        mono_med = float(np.median(radial_study["mono"][level]))
        assert dec_med <= mono_med
    assert radial_study["l0_agreement"] <= 1e-5


def test_c07_partition_scaling():
    t0 = time.monotonic()
    doc = netgen.tree_doc(500, seed=11, trunk_bias=4)
    model = netgen.model_from(doc)
    plan = separate(model, detect_topology(model), 60)
    validate_plan(model, plan)
    sizes = [len(s) for s in plan.sub_networks]
    mean = float(np.mean(sizes))
    assert 0.7 * 60 <= mean <= 1.3 * 60
    assert sum(sizes) == 500
    assert time.monotonic() - t0 < 5.0


def test_c08_bad_data_end_to_end():
    doc = netgen.chain_doc(10, seed=3)
    model = netgen.model_from(doc)
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=4)
    X = state_to_X(V)
    plan = full_plan(model, mats)
    target = model.node_of("b5", "A")
    sigma_table = {
        "P_flow": 0.015,
        "Q_flow": 0.015,
        "P_inj": 0.015,
        "Q_inj": 0.015,
        "Vmag": 0.002,
    }
    detected = identified = error_ok = 0
    for seed in range(30):
        meas = synthesize(
            model, mats, X, plan, NoiseSpec(table=sigma_table, seed=seed)
        )
        clean = estimate(model, meas, anchors=[0], mats=mats)
        clean_err = compute_error_stats(clean.V, V).vmag_max
        # Gross error of 20 sigma on one interior active injection.
        bad = [
            replace(m, value=m.value + 0.3)
            if (m.kind == "P_inj" and m.node == target)
            else m
            for m in meas
        ]
        report, result = run_bad_data(
            model, mats, bad, anchors=[0], threshold=4.0
        )
        if report["suspects"]:
            detected += 1
        culprits = report["culprits"]
        if (
            len(culprits) == 1
            and culprits[0]["kind"] == "P_inj"
            and culprits[0]["location"] == {"bus": "b5", "phase": "A"}
        ):
            identified += 1
        if compute_error_stats(result.V, V).vmag_max <= 2.0 * clean_err:
            error_ok += 1
    assert detected >= 30  # >= 99% of 30 seeds
    assert identified >= 27  # >= 90%
    assert error_ok == 30


def test_c09_pseudo_variance_bound_monte_carlo():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    for _ in range(20):
        p = float(rng.uniform(-1.0, 1.0))
        q = float(rng.uniform(-0.6, 0.6))
        sp = float(rng.uniform(0.005, 0.04))
        sq = float(rng.uniform(0.005, 0.04))
        v = float(rng.uniform(0.9, 1.1))
        sv = float(rng.uniform(0.001, 0.05))
        r = float(rng.uniform(0.002, 0.05))
        assert v - 3.0 * sv > 0.5
        bound = analytic_variance_bound(p, q, sp, sq, v, sv, r)
        n = 100_000
        ps = p + sp * rng.standard_normal(n)
        qs = q + sq * rng.standard_normal(n)
        vs = v + sv * rng.standard_normal(n)
        far = -ps - r * (ps * ps + qs * qs) / (vs * vs)
        assert float(np.var(far)) <= bound
    assert time.monotonic() - t0 < 60.0


def _dir_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_c10_cli_determinism(tmp_path):
    doc = netgen.chain_doc(6, seed=17)
    model = netgen.model_from(doc)
    V = netgen.random_state(model, seed=18)
    net = tmp_path / "network.json"
    net.write_text(json.dumps(doc))
    truth = tmp_path / "truth.json"
    save_state(str(truth), model, V)
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps([{"bus": "b0", "phase": "A"}]))
    runner = CliRunner()

    def run(args):
        res = runner.invoke(cli_main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output

    # First pass also produces the shared inputs of later commands.
    synth_a = tmp_path / "a_synth"
    run(["synth", "--network", str(net), "--state", str(truth),
         "--noise-level", "2", "--seed", "7", "--out", str(synth_a)])
    meas_file = synth_a / "measurements.json"
    bad_doc = json.loads(meas_file.read_text())
    for rec in bad_doc:
        if rec["kind"] == "P_inj" and rec["bus"] == "b3":
            rec["value"] += 0.4
            break
    bad_file = tmp_path / "bad_meas.json"
    bad_file.write_text(json.dumps(bad_doc))

    est_a = tmp_path / "a_est"
    commands = {
        "synth": lambda out: run(
            ["synth", "--network", str(net), "--state", str(truth),
             "--noise-level", "2", "--seed", "7", "--out", str(out)]
        ),
        "estimate": lambda out: run(
            ["estimate", "--network", str(net), "--measurements",
             str(meas_file), "--anchors", str(anchors), "--state", str(truth),
             "--out", str(out)]
        ),
        "observability": lambda out: run(
            ["observability", "--network", str(net), "--measurements",
             str(meas_file), "--out", str(out)]
        ),
        "partition": lambda out: run(
            ["partition", "--network", str(net), "--auto-partition-size", "3",
             "--out", str(out)]
        ),
        "baddata": lambda out: run(
            ["baddata", "--network", str(net), "--measurements", str(bad_file),
             "--anchors", str(anchors), "--state", str(truth), "--out",
             str(out)]
        ),
    }
    for name, cmd in commands.items():
        out_a = est_a if name == "estimate" else tmp_path / f"a_{name}2"
        out_b = tmp_path / f"b_{name}"
        cmd(out_a)
        cmd(out_b)
        assert _dir_bytes(out_a) == _dir_bytes(out_b), name

    # stats consumes the estimate artifact produced above.
    for tag in ("a", "b"):
        run(["stats", "--network", str(net), "--estimate",
             str(est_a / "state_estimate.json"), "--state", str(truth),
             "--out", str(tmp_path / f"{tag}_stats")])
    assert _dir_bytes(tmp_path / "a_stats") == _dir_bytes(tmp_path / "b_stats")
