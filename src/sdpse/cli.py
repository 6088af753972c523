"""Command-line workflows.

Exit codes: 0 success, 2 validation error, 3 unobservable (or failed rank-one
quality gate), 4 solver failure, 5 combinatorial budget exceeded.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
from typing import List, Optional

import click

from .baddata import run_bad_data
from .errors import (
    BudgetExceededError,
    RankRecoveryError,
    SolverError,
    UnobservableError,
    ValidationError,
)
from .measurements import (
    NoiseSpec,
    add_zero_injection,
    default_plan,
    full_plan,
    load_measurements,
    load_state,
    save_measurements,
    save_state,
    state_to_X,
    synthesize,
)
from .network import NetworkModel, load_network
from .observability import analyze
from .partition import (
    Anchor,
    PartitionPlan,
    anchor_from_doc,
    detect_topology,
    load_plan,
    propose_anchors,
    save_plan,
    separate,
    separate_on_switches,
    validate_plan,
)
from .pipeline import EstimationResult, estimate, estimate_with_plan
from .sdpmat import MeasurementMatrixSet, build_matrix_set
from .solver import SolverConfig
from .stats import compute_error_stats, save_histogram_csv


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError,) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (UnobservableError, RankRecoveryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except SolverError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except BudgetExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(5)

    return wrapper


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _outdir(out: str) -> str:
    os.makedirs(out, exist_ok=True)
    return out


def _load_anchor_file(path: str) -> List[Anchor]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"anchors file {path}: invalid JSON ({exc})")
    if not isinstance(doc, list) or not doc:
        raise ValidationError("anchors file must be a non-empty JSON array")
    return [anchor_from_doc(rec, "anchors file", default_sub=-1) for rec in doc]


def _assign_anchor_subs(plan: PartitionPlan, anchors: List[Anchor]) -> List[Anchor]:
    owner = {}
    for k, sub in enumerate(plan.sub_networks):
        for b in sub:
            owner[b] = k
    out = []
    for a in anchors:
        sub = a.sub if a.sub >= 0 else owner.get(a.bus, -1)
        if sub < 0:
            raise ValidationError(f"anchor bus {a.bus!r} is not in any sub-network")
        out.append(Anchor(sub=sub, bus=a.bus, phase=a.phase, ref_angle_deg=a.ref_angle_deg))
    return out


def _vmag_nodes(model: NetworkModel, spec: str) -> List[int]:
    if spec == "all":
        return list(range(model.n_nodes))
    if spec == "feeder":
        return model.nodes_of_bus(model.feeder_head)
    nodes: List[int] = []
    for bid in spec.split(","):
        bid = bid.strip()
        if bid not in model.bus_by_id:
            raise ValidationError(f"--vmag-buses: unknown bus {bid!r}")
        nodes.extend(model.nodes_of_bus(bid))
    return nodes


@click.group()
def main():
    """State estimation toolchain for single- and multiphase networks."""


@main.command()
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--state", required=True, type=click.Path(exists=True))
@click.option("--noise-level", type=click.IntRange(0, 4), default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--both-ends", is_flag=True, help="Measure flows at both branch ends.")
@click.option(
    "--injections",
    type=click.Choice(["feeder", "all"]),
    default="feeder",
    show_default=True,
)
@click.option(
    "--vmag-buses",
    default="feeder",
    show_default=True,
    help="'feeder', 'all', or a comma-separated bus list.",
)
@click.option("--zero-injection-buses", default="", help="Comma-separated bus list.")
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def synth(
    network,
    state,
    noise_level,
    seed,
    both_ends,
    injections,
    vmag_buses,
    zero_injection_buses,
    out,
):
    """Synthesize measurements from a ground-truth state file."""
    model = load_network(network)
    mats = build_matrix_set(model)
    V = load_state(state, model)
    X = state_to_X(V)
    if both_ends and injections == "all" and vmag_buses == "all":
        plan = full_plan(model, mats)
    else:
        plan = default_plan(model, mats, vmag_nodes=_vmag_nodes(model, vmag_buses))
        if both_ends:
            extra = []
            for kind, node, far in plan:
                if far is not None:
                    extra.append((kind, far, node))
            plan = plan + extra
        if injections == "all":
            existing = set(plan)
            for k in range(model.n_nodes):
                for kind in ("P_inj", "Q_inj"):
                    if (kind, k, None) not in existing:
                        plan.append((kind, k, None))
    noise = NoiseSpec(level=noise_level, seed=seed)
    meas = synthesize(model, mats, X, plan, noise)
    if zero_injection_buses.strip():
        buses = [b.strip() for b in zero_injection_buses.split(",")]
        meas = meas + add_zero_injection(model, buses)
    outdir = _outdir(out)
    save_measurements(os.path.join(outdir, "measurements.json"), model, meas)
    click.echo(f"wrote {len(meas)} measurements to {outdir}/measurements.json")


def _run_estimate(
    model: NetworkModel,
    meas,
    plan: Optional[PartitionPlan],
    anchors: List[Anchor],
    repair_method: Optional[str],
    config: SolverConfig,
    mats: MeasurementMatrixSet,
) -> EstimationResult:
    if plan is not None:
        plan.anchors = _assign_anchor_subs(plan, anchors) if anchors else plan.anchors
        return estimate_with_plan(model, meas, plan, config, repair_method)
    if not anchors:
        raise ValidationError("monolithic estimation requires --anchors")
    anchor_nodes = [model.node_of(a.bus, a.phase) for a in anchors]
    return estimate(model, meas, anchor_nodes, config, repair_method, mats)


def _write_estimate_artifacts(outdir, model, result, truth=None):
    save_state(os.path.join(outdir, "state_estimate.json"), model, result.V)
    report = {
        "objective": result.objective,
        "rank1_ratio": result.rank1_ratio,
        "iterations": result.iterations,
        "status": result.status,
        "repair_log": result.repair_log,
        "sub_networks": [
            {
                "sub": k,
                "n_nodes": len(s.V),
                "objective": s.objective,
                "iterations": s.iterations,
                "status": s.status,
                "rank1_ratio": s.rank1_ratio,
            }
            for k, s in enumerate(result.sub_reports)
        ],
    }
    _write_json(os.path.join(outdir, "report.json"), report)
    if result.residuals is not None:
        with open(
            os.path.join(outdir, "residuals.csv"), "w", encoding="utf-8", newline=""
        ) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "kind", "bus", "phase", "to_bus", "to_phase",
                 "value", "sigma", "residual", "normalized"]
            )
            for i, m in enumerate(result.measurements):
                nd = model.nodes[m.node]
                far = model.nodes[m.far_node] if m.far_node is not None else None
                writer.writerow(
                    [
                        i,
                        m.kind,
                        nd.bus,
                        nd.phase,
                        far.bus if far else "",
                        far.phase if far else "",
                        repr(m.value),
                        repr(m.sigma),
                        repr(float(result.residuals[i])),
                        repr(float(result.normalized_residuals[i])),
                    ]
                )
    if truth is not None:
        st = compute_error_stats(result.V, truth)
        _write_json(os.path.join(outdir, "error_stats.json"), st.to_dict())
        save_histogram_csv(os.path.join(outdir, "histogram.csv"), st)


@main.command("estimate")
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", type=click.Path(exists=True))
@click.option("--state", type=click.Path(exists=True), help="Ground truth state.")
@click.option("--noise-level", type=click.IntRange(0, 4), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--plan", "plan_path", type=click.Path(exists=True))
@click.option("--auto-partition-size", type=int, default=None)
@click.option("--switch-partition", is_flag=True)
@click.option("--anchors", "anchors_path", type=click.Path(exists=True))
@click.option(
    "--tie-policy",
    type=click.Choice(["ignore", "update"]),
    default=None,
    help="Override the plan's tie-line policy.",
)
@click.option("--no-repair", is_flag=True)
@click.option(
    "--repair-method",
    type=click.Choice(["negate", "efficiency", "analytic"]),
    default="negate",
    show_default=True,
)
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def estimate_cmd(
    network,
    measurements_path,
    state,
    noise_level,
    seed,
    plan_path,
    auto_partition_size,
    switch_partition,
    anchors_path,
    tie_policy,
    no_repair,
    repair_method,
    out,
):
    """Estimate the network state from measurements."""
    model = load_network(network)
    mats = build_matrix_set(model)
    truth = load_state(state, model) if state else None

    if measurements_path and noise_level is not None:
        raise ValidationError(
            "--measurements and --noise-level are mutually exclusive"
        )
    if measurements_path:
        meas = load_measurements(measurements_path, model)
    elif noise_level is not None:
        if truth is None:
            raise ValidationError("synthesis needs --state for ground truth")
        meas = synthesize(
            model,
            mats,
            state_to_X(truth),
            default_plan(model, mats),
            NoiseSpec(level=noise_level, seed=seed),
        )
    else:
        raise ValidationError("provide either --measurements or --noise-level")

    plan = None
    if plan_path:
        plan = load_plan(plan_path)
        validate_plan(model, plan)
    elif auto_partition_size:
        plan = separate(model, detect_topology(model), auto_partition_size)
    elif switch_partition:
        plan = separate_on_switches(model)
    if plan is not None and tie_policy:
        plan.policy = tie_policy

    anchors = _load_anchor_file(anchors_path) if anchors_path else []
    method = None if no_repair else repair_method
    result = _run_estimate(model, meas, plan, anchors, method, SolverConfig(), mats)
    outdir = _outdir(out)
    _write_estimate_artifacts(outdir, model, result, truth)
    click.echo(
        f"status={result.status} objective={result.objective:.6g} "
        f"rank1_ratio={result.rank1_ratio:.3g}"
    )


@main.command("stats")
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--estimate", "estimate_path", required=True, type=click.Path(exists=True))
@click.option("--state", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def stats_cmd(network, estimate_path, state, out):
    """Error statistics of an estimate file versus a truth file."""
    model = load_network(network)
    est = load_state(estimate_path, model)
    truth = load_state(state, model)
    st = compute_error_stats(est, truth)
    outdir = _outdir(out)
    _write_json(os.path.join(outdir, "error_stats.json"), st.to_dict())
    save_histogram_csv(os.path.join(outdir, "histogram.csv"), st)
    click.echo(
        f"vmag rms={st.vmag_rms:.3e} max={st.vmag_max:.3e}; "
        f"angle rms={st.angle_rms:.3e} max={st.angle_max:.3e}"
    )


@main.command("partition")
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--auto-partition-size", type=int, default=None)
@click.option("--switch-partition", is_flag=True)
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def partition_cmd(network, auto_partition_size, switch_partition, out):
    """Write a partition plan (sub-networks, tie-lines)."""
    model = load_network(network)
    if bool(auto_partition_size) == switch_partition:
        raise ValidationError(
            "specify exactly one of --auto-partition-size or --switch-partition"
        )
    if auto_partition_size:
        plan = separate(model, detect_topology(model), auto_partition_size)
    else:
        plan = separate_on_switches(model)
    outdir = _outdir(out)
    save_plan(os.path.join(outdir, "plan.json"), plan)
    for a in propose_anchors(model, plan):
        click.echo(
            f"sub {a.sub}: proposed anchor bus {a.bus} phase {a.phase} "
            "(anchors must be set explicitly before estimation)"
        )
    click.echo(f"wrote {len(plan.sub_networks)} sub-networks to {outdir}/plan.json")


@main.command("observability")
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def observability_cmd(network, measurements_path, out):
    """Structural observability report for a measurement set."""
    model = load_network(network)
    mats = build_matrix_set(model)
    meas = load_measurements(measurements_path, model)
    report = analyze(model, mats, meas)
    outdir = _outdir(out)
    _write_json(os.path.join(outdir, "observability.json"), report.to_dict())
    click.echo(f"verdict: {report.verdict}")


@main.command("baddata")
@click.option("--network", required=True, type=click.Path(exists=True))
@click.option("--measurements", "measurements_path", required=True, type=click.Path(exists=True))
@click.option("--anchors", "anchors_path", required=True, type=click.Path(exists=True))
@click.option("--state", type=click.Path(exists=True), help="Ground truth state.")
@click.option("--threshold", type=float, default=3.0, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_exit_codes
def baddata_cmd(network, measurements_path, anchors_path, state, threshold, out):
    """Detect and identify gross measurement errors, then estimate."""
    model = load_network(network)
    mats = build_matrix_set(model)
    meas = load_measurements(measurements_path, model)
    anchors = _load_anchor_file(anchors_path)
    anchor_nodes = [model.node_of(a.bus, a.phase) for a in anchors]
    report, result = run_bad_data(
        model, mats, meas, anchor_nodes, SolverConfig(), threshold
    )
    outdir = _outdir(out)
    _write_json(os.path.join(outdir, "baddata.json"), report)
    truth = load_state(state, model) if state else None
    _write_estimate_artifacts(outdir, model, result, truth)
    click.echo(
        f"suspect sets: {len(report['suspects'])}; culprits: "
        f"{[c['index'] for c in report['culprits']]}"
    )


if __name__ == "__main__":
    main()
