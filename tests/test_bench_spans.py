"""The benchmark's span tracer (``bench/spans.py``) wraps program functions by
module and name and reads fields of their results.  A rename or a moved field
would break ``bench/run.py --trace 1`` without failing anything else, so the
tracer's tables are checked here against the package.  The file is only
loaded, never installed: nothing is wrapped."""

import importlib
import importlib.util
from dataclasses import fields
from pathlib import Path

import netgen
import sdpse.cli
from sdpse.measurements import NoiseSpec, full_plan, state_to_X, synthesize
from sdpse.problem import assemble_problem
from sdpse.sdpmat import build_matrix_set
from sdpse.solver import SolveReport, solve

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = load_spans()
    for module, name in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for command in spans.CLI_COMMANDS:
        assert command in sdpse.cli.main.commands


def test_solve_report_has_the_counted_fields():
    assert {"iterations", "status", "polished_X"} <= {f.name for f in fields(SolveReport)}
    model = netgen.model_from(netgen.chain_doc(3))
    mats = build_matrix_set(model)
    V = netgen.random_state(model, seed=1)
    meas = synthesize(
        model, mats, state_to_X(V), full_plan(model, mats), NoiseSpec(level=0, seed=0)
    )
    prob = assemble_problem(mats, meas, anchors=[0])
    report = solve(prob)
    counts = load_spans().COUNTERS["solver.solve"](report, prob)
    assert counts["solver.calls"] == 1
    assert counts["solver.iterations"] == report.iterations
    assert counts["solver.polish_kept"] == 1
    assert counts["solver.dim_total"] == prob.dim
