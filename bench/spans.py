"""Span tracing of the program's public functions, installed from outside.

``Tracer.install`` wraps each function of ``LAYERS`` in its home module and
wherever another ``sdpse`` module (or the package itself) imported it by
name, and wraps the callbacks of the CLI commands.  Every call then records a
span (name, start, end, parent, operation id) in memory; ``write`` saves them
as JSON at the end of the run.  A layer's self time is its span's duration
minus the durations of its direct children, which is the time they cover
because calls nest on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

# (module, function) -> span name.
LAYERS = {
    ("sdpse.network", "load_network"): "network.parse",
    ("sdpse.network", "parse_network"): "network.parse",
    ("sdpse.network", "restrict"): "network.restrict",
    ("sdpse.sdpmat", "build_matrix_set"): "sdpmat.build",
    ("sdpse.measurements", "synthesize"): "measurements.synthesize",
    ("sdpse.measurements", "repair_observability"): "measurements.repair",
    ("sdpse.measurements", "load_measurements"): "measurements.io",
    ("sdpse.measurements", "save_measurements"): "measurements.io",
    ("sdpse.measurements", "load_state"): "measurements.io",
    ("sdpse.measurements", "save_state"): "measurements.io",
    ("sdpse.observability", "analyze"): "observability.analyze",
    ("sdpse.problem", "assemble_problem"): "problem.assemble",
    ("sdpse.problem", "compute_residuals"): "problem.residuals",
    ("sdpse.problem", "extract_state"): "problem.extract",
    ("sdpse.solver", "solve"): "solver.solve",
    ("sdpse.partition", "detect_topology"): "partition.topology",
    ("sdpse.partition", "separate"): "partition.separate",
    ("sdpse.partition", "separate_on_switches"): "partition.separate",
    ("sdpse.partition", "estimate_decoupled"): "partition.decoupled",
    ("sdpse.pipeline", "estimate"): "pipeline.estimate",
    ("sdpse.pipeline", "estimate_with_plan"): "pipeline.estimate",
    ("sdpse.baddata", "compute_redundancy_residuals"): "baddata.redundancy",
    ("sdpse.baddata", "identify_and_reestimate"): "baddata.identify",
    ("sdpse.baddata", "run_bad_data"): "baddata.run",
    ("sdpse.stats", "compute_error_stats"): "stats.error_stats",
}
CLI_COMMANDS = ("synth", "observability", "partition", "estimate", "stats")

# Self time of each span name is reported under this metric name.
SELF_TIME_METRICS = {
    "network.parse": "network.parse_s",
    "network.restrict": "network.restrict_s",
    "sdpmat.build": "sdpmat.build_s",
    "measurements.synthesize": "measurements.synthesize_s",
    "measurements.repair": "measurements.repair_s",
    "measurements.io": "measurements.io_s",
    "observability.analyze": "observability.analyze_s",
    "problem.assemble": "problem.assemble_s",
    "problem.residuals": "problem.residuals_s",
    "problem.extract": "problem.extract_s",
    "solver.solve": "solver.solve_s",
    "partition.topology": "partition.topology_s",
    "partition.separate": "partition.separate_s",
    "partition.decoupled": "partition.decoupled_self_s",
    "pipeline.estimate": "pipeline.estimate_self_s",
    "baddata.redundancy": "baddata.redundancy_s",
    "baddata.identify": "baddata.identify_self_s",
    "baddata.run": "baddata.run_self_s",
    "stats.error_stats": "stats.error_stats_s",
    **{f"cli.{c}": f"cli.{c}_s" for c in CLI_COMMANDS},
}


def _solve_counts(report, problem, *_, **__):
    return {
        "solver.calls": 1,
        "solver.iterations": report.iterations,
        "solver.not_converged": int(report.status != "converged"),
        "solver.polish_kept": int(report.polished_X is not None),
        "solver.measurements_total": problem.n_measurements,
        "solver.dim_total": problem.dim,
    }


# Span name -> function of (return value, call arguments) giving counts.
COUNTERS: Dict[str, Callable[..., Dict[str, int]]] = {
    "network.restrict": lambda *_, **__: {"network.restrict_calls": 1},
    "sdpmat.build": lambda *_, **__: {"sdpmat.build_calls": 1},
    "measurements.repair": lambda out, *_, **__: {"measurements.pseudo_added": len(out[1])},
    "solver.solve": _solve_counts,
    "partition.decoupled": lambda out, *_, **__: {"partition.subnets": len(out[1])},
    "pipeline.estimate": lambda *_, **__: {"pipeline.estimate_calls": 1},
    "baddata.identify": lambda out, *_, **__: {"baddata.combinations": out[2]},
    "baddata.run": lambda out, *_, **__: {"baddata.suspect_sets": len(out[0]["suspects"])},
}


class Tracer:
    """Keeps spans and counts in memory, keyed by the current operation."""

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: Dict[object, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self.op: object = None

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "op": self.op}
        )
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i]["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                for key, v in count(out, *args, **kwargs).items():
                    self.counts[self.op][key] += v
            return out

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever an sdpse module holds it."""
        import sdpse.cli  # noqa: F401  (loads every module that imports a layer)

        modules = [m for k, m in sys.modules.items() if k == "sdpse" or k.startswith("sdpse.")]
        for (home, attr), name in LAYERS.items():
            orig = getattr(sys.modules[home], attr)
            traced = self.wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        for cmd in CLI_COMMANDS:
            command = sdpse.cli.main.commands[cmd]
            command.callback = self.wrap(command.callback, f"cli.{cmd}")

    def self_times(self, ops) -> Dict[str, float]:
        """Summed self time per span name over the spans of ``ops``."""
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            if s["op"] in ops:
                out[s["name"]] += (s["end"] - s["start"]) - c
        return out

    def total_counts(self, ops) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for op in ops:
            for key, v in self.counts.get(op, {}).items():
                out[key] += v
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def layer_metrics(tracer: Tracer, op_ids: List[int], setup_ids: List[object]) -> Dict[str, float]:
    """Per-layer metrics of a traced run: self times and counts per operation
    (sums over the timed operations divided by their number), solver means per
    solve, and the set-up's self times per set-up."""
    n_ops = max(len(op_ids), 1)
    self_t = tracer.self_times(op_ids)
    counts = tracer.total_counts(op_ids)
    out: Dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = self_t.get(span, 0.0) / n_ops
    for key in (
        "network.restrict_calls", "sdpmat.build_calls", "measurements.pseudo_added",
        "solver.calls", "solver.iterations", "solver.not_converged",
        "solver.polish_kept", "partition.subnets", "pipeline.estimate_calls",
        "baddata.combinations", "baddata.suspect_sets",
    ):
        out[key] = counts.get(key, 0) / n_ops
    calls = counts.get("solver.calls", 0)
    iters = counts.get("solver.iterations", 0)
    out["solver.iter_ms"] = 1e3 * self_t.get("solver.solve", 0.0) / iters if iters else 0.0
    out["solver.polish_kept_ratio"] = counts.get("solver.polish_kept", 0) / calls if calls else 0.0
    out["solver.measurements"] = counts.get("solver.measurements_total", 0) / calls if calls else 0.0
    out["solver.dim"] = counts.get("solver.dim_total", 0) / calls if calls else 0.0
    # The operation's own span covers what no layer span does.
    out["bench.uncovered_s"] = self_t.get("op", 0.0) / n_ops
    set_t = tracer.self_times(setup_ids)
    n_set = len(setup_ids)
    out["setup.parse_s"] = set_t.get("network.parse", 0.0) / n_set
    out["setup.build_s"] = set_t.get("sdpmat.build", 0.0) / n_set
    out["setup.synthesize_s"] = set_t.get("measurements.synthesize", 0.0) / n_set
    out["setup.partition_s"] = (
        set_t.get("partition.topology", 0.0) + set_t.get("partition.separate", 0.0)
    ) / n_set
    return out
