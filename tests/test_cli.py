import functools
import json

import pytest
from click.testing import CliRunner

import netgen
from test_partition import one_sided_chain_plan

import sdpse.cli
import sdpse.solver
from sdpse.baddata import run_bad_data
from sdpse.cli import main
from sdpse.measurements import save_measurements, save_state
from sdpse.network import parse_network
from sdpse.partition import save_plan


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    doc = netgen.chain_doc(6, seed=17)
    model = parse_network(doc)
    V = netgen.random_state(model, seed=18)
    net = root / "network.json"
    net.write_text(json.dumps(doc))
    truth = root / "truth.json"
    save_state(str(truth), model, V)
    anchors = root / "anchors.json"
    anchors.write_text(json.dumps([{"bus": "b0", "phase": "A"}]))
    return {"root": root, "net": net, "truth": truth, "anchors": anchors, "model": model}


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


@pytest.fixture(scope="module")
def synth0(workdir):
    """Noise-free readings of the default plan, whose flows are one-sided."""
    out = workdir["root"] / "synth0"
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "0", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    return out / "measurements.json"


@pytest.fixture(scope="module")
def estimated(workdir, synth0):
    """Monolithic estimate from ``synth0`` with the default repair."""
    est_out = workdir["root"] / "est"
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--anchors", str(workdir["anchors"]),
         "--state", str(workdir["truth"]),
         "--out", str(est_out)]
    )
    return res, est_out


@pytest.fixture(scope="module")
def partitioned(workdir):
    """Automatic partition of the chain into sub-networks of 3 buses."""
    out = workdir["root"] / "part"
    res = run_cli(
        ["partition", "--network", str(workdir["net"]),
         "--auto-partition-size", "3", "--out", str(out)]
    )
    return res, out / "plan.json"


def test_synth_writes_measurements(workdir):
    out = workdir["root"] / "synth"
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "2", "--seed", "7", "--out", str(out)]
    )
    assert res.exit_code == 0
    doc = json.loads((out / "measurements.json").read_text())
    assert all(rec["kind"] in ("P_flow", "Q_flow", "P_inj", "Q_inj", "Vmag") for rec in doc)
    kinds = {rec["kind"] for rec in doc}
    assert kinds == {"P_flow", "Q_flow", "P_inj", "Q_inj", "Vmag"}


def test_estimate_from_measurements(estimated):
    res, est_out = estimated
    assert res.exit_code == 0, res.output
    for name in ("state_estimate.json", "report.json", "residuals.csv",
                 "error_stats.json", "histogram.csv"):
        assert (est_out / name).exists()
    stats = json.loads((est_out / "error_stats.json").read_text())
    assert stats["voltage_magnitude_pu"]["maximum"] < 1e-5
    report = json.loads((est_out / "report.json").read_text())
    assert report["status"] == "converged"
    assert len(report["repair_log"]) == 5


def test_estimate_no_repair_fails_on_one_sided(workdir, synth0):
    est_out = workdir["root"] / "est_norepair"
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--anchors", str(workdir["anchors"]),
         "--no-repair", "--out", str(est_out)]
    )
    assert res.exit_code == 3


def test_estimate_requires_anchor_file(workdir, synth0):
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "noanchor")]
    )
    assert res.exit_code == 2
    assert "monolithic estimation requires --anchors" in res.output


def test_estimate_input_mode_validation(workdir):
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--anchors", str(workdir["anchors"]),
         "--out", str(workdir["root"] / "nothing")]
    )
    assert res.exit_code == 2


def test_estimate_non_finite_reading_exits_2(workdir):
    synth_out = workdir["root"] / "synth_nan"
    run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "0", "--out", str(synth_out)]
    )
    doc = json.loads((synth_out / "measurements.json").read_text())
    doc[1]["value"] = float("nan")
    bad_file = workdir["root"] / "nan_meas.json"
    bad_file.write_text(json.dumps(doc))
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(bad_file),
         "--anchors", str(workdir["anchors"]),
         "--out", str(workdir["root"] / "est_nan")]
    )
    assert res.exit_code == 2
    assert "non-finite reading" in res.output


def test_invalid_network_exits_2(workdir, synth0):
    bad = workdir["root"] / "bad_net.json"
    doc = netgen.chain_doc(3)
    doc["mystery"] = 1
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(bad),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "obs_bad")]
    )
    assert res.exit_code == 2
    assert "unknown keys ['mystery'] in network document" in res.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["branches"][1].update(r="abc"), "branch 'l1': r must be a number"),
        (lambda d: d["branches"][1].update(x=None), "branch 'l1': x must be a number"),
        (lambda d: d.update(base_mva="x"), "network document: base_mva must be a number"),
        (lambda d: d["branches"][1].update(r=float("nan")), "branch 'l1': r must be finite"),
        (lambda d: d["buses"][2].update(base_kV=float("nan")),
         "bus 'b2': base_kV must be finite"),
        (lambda d: d["buses"][2].update(base_kV=0), "bus 'b2': base_kV must be positive"),
    ],
    ids=["r-text", "x-null", "base-mva-text", "r-nan", "base-kv-nan", "base-kv-zero"],
)
def test_malformed_number_in_network_exits_2(workdir, synth0, edit, message):
    doc = netgen.chain_doc(6, seed=17)
    edit(doc)
    bad = workdir["root"] / "bad_number_net.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(bad),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "obs_bad_number")]
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("value", "abc", "measurement 1: value must be a number"),
        ("sigma", None, "measurement 1: sigma must be a number"),
    ],
    ids=["value-text", "sigma-null"],
)
def test_malformed_number_in_measurements_exits_2(workdir, synth0, key, value, message):
    doc = json.loads(synth0.read_text())
    doc[1][key] = value
    bad = workdir["root"] / "bad_number_meas.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(workdir["net"]),
         "--measurements", str(bad),
         "--out", str(workdir["root"] / "obs_bad_meas")]
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mag_pu", "x", "state record 2: mag_pu must be a number"),
        ("angle_deg", float("nan"), "state record 2: angle_deg must be finite"),
    ],
    ids=["mag-text", "angle-nan"],
)
def test_malformed_number_in_state_exits_2(workdir, key, value, message):
    doc = json.loads(workdir["truth"].read_text())
    doc[2][key] = value
    bad = workdir["root"] / "bad_number_state.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(bad),
         "--noise-level", "0", "--out", str(workdir["root"] / "synth_bad_state")]
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("value", ["false", 0, None], ids=["text", "zero", "null"])
@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d, v: d["buses"][0].update(feeder_head=v), "bus 'b0': feeder_head"),
        (lambda d, v: d["branches"][1].update(is_switch=v), "branch 'l1': is_switch"),
        (lambda d, v: d["branches"][1].update(closed=v), "branch 'l1': closed"),
    ],
    ids=["feeder-head", "is-switch", "closed"],
)
def test_non_boolean_flag_in_network_exits_2(workdir, synth0, edit, where, value):
    doc = netgen.chain_doc(6, seed=17)
    edit(doc, value)
    bad = workdir["root"] / "bad_bool_net.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(bad),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "obs_bad_bool")]
    )
    assert res.exit_code == 2
    assert f"{where} must be true or false" in res.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["buses"].__setitem__(2, 1), "bus entry 2 must be a JSON object"),
        (lambda d: d["branches"].__setitem__(1, 1), "branch entry 1 must be a JSON object"),
        (lambda d: d["branches"][1].update({"to": 1}), "branch 'l1' to must be a JSON object"),
        (lambda d: d.update(buses={}), "'buses' must be a JSON array"),
        (lambda d: d.update(branches=None), "'branches' must be a JSON array"),
    ],
    ids=["bus", "branch", "endpoint", "buses-object", "branches-null"],
)
def test_non_object_record_in_network_exits_2(workdir, synth0, edit, message):
    doc = netgen.chain_doc(6, seed=17)
    edit(doc)
    bad = workdir["root"] / "bad_record_net.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(bad),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "obs_bad_record")]
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("record", [1, None], ids=["number", "null"])
def test_non_object_record_in_measurements_exits_2(workdir, synth0, record):
    doc = json.loads(synth0.read_text())
    doc[1] = record
    bad = workdir["root"] / "bad_record_meas.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(workdir["net"]),
         "--measurements", str(bad),
         "--out", str(workdir["root"] / "obs_bad_record_meas")]
    )
    assert res.exit_code == 2
    assert "measurement 1 must be a JSON object" in res.output


@pytest.mark.parametrize("record", [1, None], ids=["number", "null"])
def test_non_object_record_in_state_exits_2(workdir, record):
    doc = json.loads(workdir["truth"].read_text())
    doc[2] = record
    bad = workdir["root"] / "bad_record_state.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(bad),
         "--noise-level", "0", "--out", str(workdir["root"] / "synth_bad_record")]
    )
    assert res.exit_code == 2
    assert "state record 2 must be a JSON object" in res.output


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["buses"][2].update(phases=1), "bus 'b2': phases must be an array"),
        (lambda d: d["branches"][1]["to"].update(phase=["A"]),
         "branch 'l1' to: phase must be a phase name"),
    ],
    ids=["bus-phases-number", "endpoint-phase-list"],
)
def test_wrongly_typed_phase_in_network_exits_2(workdir, synth0, edit, message):
    doc = netgen.chain_doc(6, seed=17)
    edit(doc)
    bad = workdir["root"] / "bad_phase_net.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(bad),
         "--measurements", str(synth0),
         "--out", str(workdir["root"] / "obs_bad_phase")]
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("key", ["phase", "to_phase"])
def test_wrongly_typed_phase_in_measurements_exits_2(workdir, synth0, key):
    doc = json.loads(synth0.read_text())
    i = next(k for k, rec in enumerate(doc) if "to_bus" in rec)
    doc[i][key] = ["A"]
    bad = workdir["root"] / "bad_phase_meas.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["observability", "--network", str(workdir["net"]),
         "--measurements", str(bad),
         "--out", str(workdir["root"] / "obs_bad_phase_meas")]
    )
    assert res.exit_code == 2
    assert f"measurement {i}: {key} must be a phase name" in res.output


def test_wrongly_typed_phase_in_state_exits_2(workdir):
    doc = json.loads(workdir["truth"].read_text())
    doc[2]["phase"] = ["A"]
    bad = workdir["root"] / "bad_phase_state.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(bad),
         "--noise-level", "0", "--out", str(workdir["root"] / "synth_bad_phase")]
    )
    assert res.exit_code == 2
    assert "state record 2: phase must be a phase name" in res.output


def test_monolithic_estimate_builds_the_matrix_set_once(workdir, synth0, monkeypatch):
    import sdpse.cli
    import sdpse.problem

    builds = []
    build = sdpse.cli.build_matrix_set

    def counted(model):
        builds.append(model)
        return build(model)

    monkeypatch.setattr(sdpse.cli, "build_matrix_set", counted)
    monkeypatch.setattr(sdpse.problem, "build_matrix_set", counted)
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--anchors", str(workdir["anchors"]),
         "--out", str(workdir["root"] / "est_builds")]
    )
    assert res.exit_code == 0, res.output
    assert len(builds) == 1


def test_estimate_with_no_newton_direction_exits_4(workdir, synth0, monkeypatch):
    # The start itself gives no Newton direction, so there is no good
    # iterate to return: numerical_failure, which finish raises.
    monkeypatch.setattr(sdpse.solver, "_linearize", lambda *args: None)
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--anchors", str(workdir["anchors"]),
         "--out", str(workdir["root"] / "est_no_direction")]
    )
    assert res.exit_code == 4, res.output
    assert "solver failed to produce a PSD iterate" in res.output


def test_observability_command(workdir, synth0):
    out = workdir["root"] / "obs"
    res = run_cli(
        ["observability", "--network", str(workdir["net"]),
         "--measurements", str(synth0),
         "--out", str(out)]
    )
    assert res.exit_code == 0
    assert "repairable" in res.output
    rep = json.loads((out / "observability.json").read_text())
    assert rep["verdict"] == "repairable"


def test_partition_command(workdir, partitioned):
    res, plan_file = partitioned
    assert res.exit_code == 0
    plan = json.loads(plan_file.read_text())
    assert len(plan["sub_networks"]) == 2
    assert "proposed anchor" in res.output
    res2 = run_cli(["partition", "--network", str(workdir["net"]),
                    "--out", str(plan_file.parent)])
    assert res2.exit_code == 2  # neither mode selected


def test_estimate_with_plan_and_per_sub_anchors(workdir, partitioned):
    model = workdir["model"]
    import numpy as np

    from sdpse.measurements import load_state

    V = load_state(str(workdir["truth"]), model)
    _, plan_file = partitioned
    anchors = []
    plan = json.loads(plan_file.read_text())
    for sub in plan["sub_networks"]:
        bus = sub[0]
        node = model.node_of(bus, "A")
        anchors.append(
            {"bus": bus, "phase": "A",
             "ref_angle_deg": float(np.degrees(np.angle(V[node])))}
        )
    anchor_file = workdir["root"] / "plan_anchors.json"
    anchor_file.write_text(json.dumps(anchors))
    # Every sub-network needs a magnitude site of its own.
    synth_plan = workdir["root"] / "synth_plan"
    run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "0",
         "--vmag-buses", ",".join(a["bus"] for a in anchors),
         "--out", str(synth_plan)]
    )
    out = workdir["root"] / "est_plan"
    res = run_cli(
        ["estimate", "--network", str(workdir["net"]),
         "--measurements", str(synth_plan / "measurements.json"),
         "--plan", str(plan_file),
         "--anchors", str(anchor_file),
         "--state", str(workdir["truth"]),
         "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    report = json.loads((out / "report.json").read_text())
    assert len(report["sub_networks"]) == 2
    stats = json.loads((out / "error_stats.json").read_text())
    assert stats["voltage_magnitude_pu"]["maximum"] < 1e-4


def test_stats_command(workdir, estimated):
    _, est_out = estimated
    out = workdir["root"] / "stats"
    res = run_cli(
        ["stats", "--network", str(workdir["net"]),
         "--estimate", str(est_out / "state_estimate.json"),
         "--state", str(workdir["truth"]),
         "--out", str(out)]
    )
    assert res.exit_code == 0
    assert (out / "error_stats.json").exists()
    assert (out / "histogram.csv").exists()


@pytest.fixture(scope="module")
def bad_meas(workdir):
    """Noise-free readings of every kind at both ends, with the P injection
    at b3 off by 0.4."""
    synth_out = workdir["root"] / "synth_full"
    run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "0", "--both-ends", "--injections", "all",
         "--vmag-buses", "all", "--out", str(synth_out)]
    )
    doc = json.loads((synth_out / "measurements.json").read_text())
    for rec in doc:
        if rec["kind"] == "P_inj" and rec["bus"] == "b3":
            rec["value"] += 0.4
            break
    bad_file = workdir["root"] / "bad_meas.json"
    bad_file.write_text(json.dumps(doc))
    return bad_file


def test_baddata_command(workdir, bad_meas):
    out = workdir["root"] / "baddata"
    res = run_cli(
        ["baddata", "--network", str(workdir["net"]),
         "--measurements", str(bad_meas),
         "--anchors", str(workdir["anchors"]),
         "--state", str(workdir["truth"]),
         "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    rep = json.loads((out / "baddata.json").read_text())
    assert len(rep["culprits"]) == 1
    assert rep["culprits"][0]["kind"] == "P_inj"
    assert rep["culprits"][0]["location"] == {"bus": "b3", "phase": "A"}
    stats = json.loads((out / "error_stats.json").read_text())
    assert stats["voltage_magnitude_pu"]["maximum"] < 1e-4


def test_baddata_over_budget_exits_5(workdir, bad_meas, monkeypatch):
    # With a budget of no combinations, the one suspect set of the bad
    # injection is already over it.
    monkeypatch.setattr(
        sdpse.cli, "run_bad_data", functools.partial(run_bad_data, max_combinations=0)
    )
    res = run_cli(
        ["baddata", "--network", str(workdir["net"]),
         "--measurements", str(bad_meas),
         "--anchors", str(workdir["anchors"]),
         "--out", str(workdir["root"] / "baddata_budget")]
    )
    assert res.exit_code == 5, res.output
    assert "exceed the budget of 0" in res.output


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_baddata_non_positive_threshold_exits_2(workdir, threshold):
    synth_out = workdir["root"] / f"synth_threshold{threshold}"
    run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "2", "--both-ends", "--injections", "all",
         "--vmag-buses", "all", "--out", str(synth_out)]
    )
    res = run_cli(
        ["baddata", "--network", str(workdir["net"]),
         "--measurements", str(synth_out / "measurements.json"),
         "--anchors", str(workdir["anchors"]),
         "--threshold", threshold,
         "--out", str(workdir["root"] / "baddata_threshold")]
    )
    assert res.exit_code == 2
    assert "threshold must be positive" in res.output


def test_synth_zero_injection_buses(workdir):
    out = workdir["root"] / "synth_zi"
    res = run_cli(
        ["synth", "--network", str(workdir["net"]), "--state", str(workdir["truth"]),
         "--noise-level", "0", "--zero-injection-buses", "b2,b4",
         "--out", str(out)]
    )
    assert res.exit_code == 0
    doc = json.loads((out / "measurements.json").read_text())
    zi = [rec for rec in doc if rec["provenance"] == "zero_injection"]
    assert len(zi) == 4
    assert all(rec["value"] == 0.0 for rec in zi)


@pytest.mark.parametrize(
    "plan_doc, anchors_doc, message",
    [
        ({"sub_networks": [["b0", "b1", "b2", "b3", "b4", "b5"], []]}, None,
         "sub-network 1 is empty"),
        ({"sub_networks": [["b0", "b1", "b2", "b3", "b4", "b5"]],
          "anchors": [{"sub": 0}]}, None, "plan anchor: missing key 'bus'"),
        ({"sub_networks": [["b0", "b1", "b2", "b3", "b4", "b5"]],
          "anchors": [{"sub": 0, "bus": "b0", "ref_angle_deg": "x"}]}, None,
         "ref_angle_deg a number"),
        ({"sub_networks": [["b0", "b1", "b2", "b3", "b4", "b5"]], "policy": "merge"},
         None, "plan policy"),
        (None, [{"phase": "A"}], "anchors file: missing key 'bus'"),
        (None, [{"bus": "b0", "phase": ["A"]}], "anchors file: phase must be a phase name"),
    ],
    ids=[
        "empty-sub", "anchor-no-bus", "bad-angle", "bad-policy", "anchors-file-no-bus",
        "anchors-file-phase-list",
    ],
)
def test_estimate_malformed_plan_or_anchors_exits_2(
    workdir, synth0, plan_doc, anchors_doc, message
):
    args = ["estimate", "--network", str(workdir["net"]), "--measurements", str(synth0),
            "--out", str(workdir["root"] / "malformed")]
    if plan_doc is not None:
        plan = workdir["root"] / "malformed_plan.json"
        plan.write_text(json.dumps(plan_doc))
        args += ["--plan", str(plan)]
    anchors = workdir["anchors"]
    if anchors_doc is not None:
        anchors = workdir["root"] / "malformed_anchors.json"
        anchors.write_text(json.dumps(anchors_doc))
    res = run_cli(args + ["--anchors", str(anchors)])
    assert res.exit_code == 2
    assert message in res.output


def test_estimate_no_repair_with_plan_exits_3(tmp_path):
    model, V, meas, plan = one_sided_chain_plan()
    net = tmp_path / "network.json"
    net.write_text(json.dumps(netgen.chain_doc(12)))
    save_measurements(str(tmp_path / "measurements.json"), model, meas)
    save_plan(str(tmp_path / "plan.json"), plan)
    args = ["estimate", "--network", str(net),
            "--measurements", str(tmp_path / "measurements.json"),
            "--plan", str(tmp_path / "plan.json"), "--out", str(tmp_path / "est")]
    res = CliRunner().invoke(main, args + ["--no-repair"])
    assert res.exit_code == 3, res.output
    assert "sub-network 0:" in res.output
    assert run_cli(args).exit_code == 0
