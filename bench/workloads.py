"""The four workloads.

Each workload has three phases.  ``prepare`` makes the benchmark's own inputs
from the seed (feeder documents, truth states, plans, gross errors, µPMU
readings) and is not timed.  ``setup`` is the program's work before the first
operation (parsing, matrix build, measurement synthesis, partitioning) and is
timed as ``setup_s``.  ``run(i)`` is one operation on case i; ``check(i, out)``
returns the estimate, the real readings it must explain and the reasons it
fails, if any, and ``checkers[i]`` holds case i to its noise model.

A round runs every case once.  Case i has its own truth state, drawn from the
run seed and i, and its own noise draw, which is the same for every seed
(common random numbers): two runs then differ through the truth states and
the program, not through a fresh noise sample.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np
from click.testing import CliRunner

from sdpse import Measurement, NoiseSpec, SolverConfig
from sdpse import baddata, cli, measurements, network, partition, pipeline, sdpmat

import feeders
from oracle import Checker, PowerFlowOracle

# Purposes of the derived streams.  The truth of case i comes from the run
# seed, its noise from NOISE_SEED.
TRUTH, NOISE, PMU = 1, 2, 3
NOISE_SEED = 0

PMU_SIGMA = 1e-5


class Workload:
    """What the runner needs of a workload besides prepare, setup and run."""

    cases: int
    checkers: List[Checker]

    def truths(self, seed: int) -> List[np.ndarray]:
        return [
            feeders.random_state(self.doc, seed=feeders.sub_seed(seed, TRUTH, i))
            for i in range(self.cases)
        ]

    def before(self, i: int) -> None:
        """Untimed work before operation i."""


def _anchor(model, V: np.ndarray, bus: str, phase: str = "A") -> Tuple[int, float]:
    node = model.node_of(bus, phase)
    return node, float(np.degrees(np.angle(V[node])))


class MonoRadial(Workload):
    """One monolithic ``estimate`` per operation on a trunk-biased radial
    feeder: one-sided P/Q flows on every branch, P/Q injection at the head and
    Vmag at five buses, ``negate`` repair, L2 noise, convergence_tol 1e-2 as
    in the radial study.  One large lifted problem: the dense Gram / Schur
    path of the solver takes nearly all of the time."""

    name = "mono-radial"
    buses = 34
    cases = 24

    def prepare(self, seed: int, workdir: str) -> None:
        self.doc = feeders.tree_doc(self.buses, seed=7, trunk_bias=3)
        self.V = self.truths(seed)
        index = feeders.node_index(self.doc)
        vm_buses = np.linspace(0, self.buses - 2, 5).astype(int)
        self.plan = feeders.one_sided_plan(self.doc, [index[(f"b{i}", "A")] for i in vm_buses])
        self.noise_seeds = [feeders.sub_seed(NOISE_SEED, NOISE, i) for i in range(self.cases)]

    def setup(self) -> None:
        self.model = network.parse_network(self.doc)
        self.mats = sdpmat.build_matrix_set(self.model)
        self.meas = [
            measurements.synthesize(
                self.model, self.mats, measurements.state_to_X(V), self.plan,
                NoiseSpec(level=2, seed=s),
            )
            for V, s in zip(self.V, self.noise_seeds)
        ]
        self.config = SolverConfig(convergence_tol=1e-2)
        self.head = self.model.node_of(feeders.head_bus(self.doc), "A")

    def make_checkers(self) -> None:
        oracle = PowerFlowOracle(self.doc)
        self.checkers = [
            Checker(oracle, V, meas, [(self.head, 0.0)]) for V, meas in zip(self.V, self.meas)
        ]

    def run(self, i: int):
        return pipeline.estimate(
            self.model, self.meas[i], [self.head], self.config,
            repair_method="negate", mats=self.mats,
        )

    def check(self, i: int, out):
        return out.V, self.meas[i], self.checkers[i].problems(out.V, self.meas[i])


class PartitionedFeeder(Workload):
    """One ``estimate_with_plan`` per operation on a trunk-biased radial
    feeder that ``separate`` splits into sub-networks.  Each sub-network is
    anchored at its root bus, which carries a µPMU: the angle reference and a
    magnitude reading of sigma 1e-5.  One-sided flows elsewhere, tie branches
    metered at both ends, tie policy ``update``, L2 noise, default solver
    settings.  Many mid-size solves, each after restricting the model and
    rebuilding its matrix set."""

    name = "partitioned-feeder"
    buses = 96
    subnet_size = 8
    cases = 48

    def prepare(self, seed: int, workdir: str) -> None:
        self.doc = feeders.tree_doc(self.buses, seed=7, trunk_bias=3)
        self.V = self.truths(seed)
        self.noise_seeds = [feeders.sub_seed(NOISE_SEED, NOISE, i) for i in range(self.cases)]
        self.pmu_draws = [
            feeders.rng(NOISE_SEED, PMU, i).standard_normal(self.buses) for i in range(self.cases)
        ]

    def setup(self) -> None:
        self.model = network.parse_network(self.doc)
        self.mats = sdpmat.build_matrix_set(self.model)
        topo = partition.detect_topology(self.model)
        plan = partition.separate(self.model, topo, self.subnet_size)
        plan.policy = "update"
        head = self.model.node_of(feeders.head_bus(self.doc), "A")
        entries = feeders.both_ends(
            self.doc, feeders.one_sided_plan(self.doc, [head]), plan.tie_lines
        )
        self.anchors, self.plans, self.meas = [], [], []
        for V, s, draws in zip(self.V, self.noise_seeds, self.pmu_draws):
            anchors = [_anchor(self.model, V, sub[0]) for sub in plan.sub_networks]
            self.anchors.append(anchors)
            self.plans.append(replace(plan, anchors=[
                partition.Anchor(sub=k, bus=sub[0], phase="A", ref_angle_deg=ref)
                for k, (sub, (_, ref)) in enumerate(zip(plan.sub_networks, anchors))
            ]))
            meas = measurements.synthesize(
                self.model, self.mats, measurements.state_to_X(V), entries,
                NoiseSpec(level=2, seed=s),
            )
            pmu = [
                Measurement("Vmag", node, float(abs(V[node]) + PMU_SIGMA * g), PMU_SIGMA)
                for (node, _), g in zip(anchors, draws)
            ]
            self.meas.append(meas + pmu)

    def make_checkers(self) -> None:
        # Tie-branch flows enter no sub-network's solve (the head has the
        # only injection reading they could fold into), so the estimate is
        # held to the readings inside sub-networks.
        plan = self.plans[0]
        owner = {b: k for k, sub in enumerate(plan.sub_networks) for b in sub}
        bus = [b for b, _ in feeders.node_list(self.doc)]
        self.inner = [
            [m for m in meas if m.far_node is None or owner[bus[m.node]] == owner[bus[m.far_node]]]
            for meas in self.meas
        ]
        oracle = PowerFlowOracle(self.doc)
        self.checkers = [
            Checker(oracle, V, inner, anchors)
            for V, inner, anchors in zip(self.V, self.inner, self.anchors)
        ]

    def run(self, i: int):
        return pipeline.estimate_with_plan(self.model, self.meas[i], self.plans[i])

    def check(self, i: int, out):
        return out.V, self.inner[i], self.checkers[i].problems(out.V, self.inner[i])


class BadDataSweep(Workload):
    """One ``run_bad_data`` per operation on the 10-bus chain of the bad-data
    acceptance test: full plan, sigma-table noise, and a +0.3 pu gross error
    on the interior active injection at b5, threshold 4.  Many tiny full-plan
    solves sharing one matrix set: redundancy identities, re-estimation
    sweeps and fixed per-call costs dominate."""

    name = "baddata-sweep"
    cases = 40
    # Noise draw 1 is left out: its clean readings already break a node
    # balance at 4.1 sigma, so with the gross error there are two suspect sets
    # and the sweep would measure a false alarm, not the identification.
    noise_draws = [0] + list(range(2, cases + 1))
    sigma_table = {"P_flow": 0.015, "Q_flow": 0.015, "P_inj": 0.015, "Q_inj": 0.015, "Vmag": 0.002}
    gross_error = 0.3

    def prepare(self, seed: int, workdir: str) -> None:
        self.doc = feeders.chain_doc(10, seed=3)
        self.V = self.truths(seed)
        self.plan = feeders.full_plan(self.doc)
        self.target = self.plan.index(("P_inj", feeders.node_index(self.doc)[("b5", "A")], None))
        self.noise_seeds = [feeders.sub_seed(NOISE_SEED, NOISE, i) for i in self.noise_draws]

    def setup(self) -> None:
        self.model = network.parse_network(self.doc)
        self.mats = sdpmat.build_matrix_set(self.model)
        self.clean = [
            measurements.synthesize(
                self.model, self.mats, measurements.state_to_X(V), self.plan,
                NoiseSpec(table=self.sigma_table, seed=s),
            )
            for V, s in zip(self.V, self.noise_seeds)
        ]
        self.bad = [list(meas) for meas in self.clean]
        for meas in self.bad:
            meas[self.target] = replace(
                meas[self.target], value=meas[self.target].value + self.gross_error
            )
        self.head = self.model.node_of("b0", "A")

    def _untouched(self, meas: Sequence) -> list:
        return [m for k, m in enumerate(meas) if k != self.target]

    def make_checkers(self) -> None:
        oracle = PowerFlowOracle(self.doc)
        self.checkers = [
            Checker(oracle, V, self._untouched(meas), [(self.head, 0.0)])
            for V, meas in zip(self.V, self.clean)
        ]

    def run(self, i: int):
        return baddata.run_bad_data(
            self.model, self.mats, self.bad[i], [self.head], threshold=4.0
        )

    def check(self, i: int, out):
        report, result = out
        readings = self._untouched(self.bad[i])
        problems = self.checkers[i].problems(result.V, readings)
        culprits = [c["index"] for c in report["culprits"]]
        if culprits != [self.target]:
            problems.append(f"culprits {culprits}, the gross error is reading {self.target}")
        return result.V, readings, problems


class CliMultiphase(Workload):
    """One in-process ``sdpse`` CLI session per operation on a multiphase
    feeder with cross-phase coupling: ``synth`` (full plan, L2),
    ``observability``, ``partition --switch-partition``, ``estimate`` and
    ``stats``, all through the documented file formats.  The feeder is the
    head of the 38-node multiphase test feeder (buses below), whose coupled
    segments give dense injection supports."""

    name = "cli-multiphase"
    feeder_buses = ["650", "RG60", "632", "645", "646"]
    cases = 16

    def prepare(self, seed: int, workdir: str) -> None:
        self.doc = feeders.trim(feeders.multiphase_feeder_doc(), self.feeder_buses)
        self.V = self.truths(seed)
        self.noise_seeds = [feeders.sub_seed(NOISE_SEED, NOISE, i) for i in range(self.cases)]
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.net = os.path.join(workdir, "network.json")
        self.anchor_file = os.path.join(workdir, "anchors.json")
        self.truth_files = [os.path.join(workdir, f"truth{i}.json") for i in range(self.cases)]
        files = [
            (self.net, self.doc),
            (self.anchor_file, [{"bus": feeders.head_bus(self.doc), "phase": "A", "ref_angle_deg": 0.0}]),
        ]
        for path, V in zip(self.truth_files, self.V):
            files.append((path, [
                {"bus": b, "phase": p, "mag_pu": float(abs(v)), "angle_deg": float(np.degrees(np.angle(v)))}
                for (b, p), v in zip(feeders.node_list(self.doc), V)
            ]))
        for path, payload in files:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)

    def setup(self) -> None:
        self.runner = CliRunner()
        self.model = network.load_network(self.net)
        self.mats = sdpmat.build_matrix_set(self.model)
        self.head = self.model.node_of(feeders.head_bus(self.doc), "A")

    def make_checkers(self) -> None:
        # The full plan's locations and L2 sigma fix the covariance; the
        # values come from each session's measurement file.
        sigma = {k: measurements.NOISE_LEVELS[k][2] for k in measurements.KINDS}
        self.template = [
            Measurement(k, a, 0.0, sigma[k], far_node=b)
            for k, a, b in feeders.full_plan(self.doc)
        ]
        oracle = PowerFlowOracle(self.doc)
        self.checkers = [Checker(oracle, V, self.template, [(self.head, 0.0)]) for V in self.V]

    def case_dir(self, i: int) -> str:
        return os.path.join(self.dir, f"case{i}")

    def before(self, i: int) -> None:
        shutil.rmtree(self.case_dir(i), ignore_errors=True)

    def run(self, i: int):
        d = self.case_dir(i)
        meas = os.path.join(d, "synth", "measurements.json")
        est = os.path.join(d, "est")
        net = ["--network", self.net]
        truth = ["--state", self.truth_files[i]]
        sessions = [
            ["synth", *net, *truth, "--noise-level", "2", "--seed", str(self.noise_seeds[i]),
             "--both-ends", "--injections", "all", "--vmag-buses", "all",
             "--out", os.path.join(d, "synth")],
            ["observability", *net, "--measurements", meas, "--out", os.path.join(d, "obs")],
            ["partition", *net, "--switch-partition", "--out", os.path.join(d, "part")],
            ["estimate", *net, "--measurements", meas, "--anchors", self.anchor_file, *truth,
             "--out", est],
            ["stats", *net, "--estimate", os.path.join(est, "state_estimate.json"), *truth,
             "--out", os.path.join(d, "stats")],
        ]
        return [self.runner.invoke(cli.main, args) for args in sessions]

    def check(self, i: int, out):
        d = self.case_dir(i)
        for res in out:
            if res.exit_code != 0:
                return None, None, [f"exit code {res.exit_code}: {res.output.strip()[-300:]}"]
        problems = []
        meas = measurements.load_measurements(os.path.join(d, "synth", "measurements.json"), self.model)
        V = measurements.load_state(os.path.join(d, "est", "state_estimate.json"), self.model)
        partition.load_plan(os.path.join(d, "part", "plan.json"))
        docs = {}
        for name in ("obs/observability.json", "est/report.json",
                     "est/error_stats.json", "stats/error_stats.json"):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                docs[name] = json.load(fh)
        for name in ("est/residuals.csv", "est/histogram.csv", "stats/histogram.csv"):
            with open(os.path.join(d, name), encoding="utf-8", newline="") as fh:
                if len(list(csv.reader(fh))) < 2:
                    problems.append(f"{name} has no data rows")
        verdict = docs["obs/observability.json"]["verdict"]
        if verdict != "observable":
            problems.append(f"full plan verdict {verdict!r}")
        mag = np.abs(np.abs(V) - np.abs(self.V[i]))
        for name in ("est/error_stats.json", "stats/error_stats.json"):
            rms = docs[name]["voltage_magnitude_pu"]["rms"]
            if not abs(rms - float(np.sqrt(np.mean(mag * mag)))) <= 1e-9:
                problems.append(f"{name} has vmag rms {rms}, the state files give another")
        if [(m.kind, m.node, m.far_node) for m in meas] != [
            (m.kind, m.node, m.far_node) for m in self.template
        ]:
            problems.append("the measurement file does not hold the full plan")
            return V, meas, problems
        return V, meas, problems + self.checkers[i].problems(V, meas)


WORKLOADS = {w.name: w for w in (MonoRadial, PartitionedFeeder, BadDataSweep, CliMultiphase)}
