"""Benchmark of the sdpse estimator, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload mono-radial --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in a
process of its own.  With ``--trace 0`` the last line of standard output is
the result with the end-to-end metrics, whose times are scaled to a
reference machine speed (``speed.py``); with ``--trace 1`` the program's
public functions are wrapped from outside and the result carries the
per-layer metrics instead, unscaled.  The package is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mono-radial", "partitioned-feeder", "baddata-sweep", "cli-multiphase")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up takes milliseconds, so it is repeated, at least SETUP_REPEATS times
# and for at least SETUP_SECONDS, and its median reported.
SETUP_REPEATS = 11
SETUP_SECONDS = 1.0
# One BLAS thread: the solver's matrices are small, and a second thread only
# adds run-to-run spread when other processes share the cores.
BLAS_THREADS = "1"
# glibc raises its mmap threshold the first time a mapped block is freed, at a
# point that depends on the allocation history and differs between runs of the
# same inputs.  The solver's large per-iteration arrays then come either from
# fresh mappings, with page faults on every iteration, or from the heap, and
# op_s takes one of two values: 0.44 s or 0.52 to 0.64 s on cli-multiphase.
# Fixing the thresholds turns that adjustment off.  They are fixed at the top
# of glibc's range (the mmap threshold at its 32 MiB maximum, the trim
# threshold at twice that, as glibc sets it itself), so that every run reuses
# heap memory, as glibc does by itself on baddata-sweep: page-fault time on a
# shared host spreads far more than the computation does.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
UNITS = {
    "setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "vmag_rms_pu": "pu",
    "angle_max_deg": "deg",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no mallopt."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(
        M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1


def import_package() -> None:
    """Import sdpse from this checkout's src/; exit with a message (status 1)
    when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sdpse
        import sdpse.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import sdpse from {src}: {exc}")
    if Path(sdpse.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: sdpse was imported from {sdpse.__file__}, not from {src}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def run_record(workload: str, seed: int, seconds: float, trace: int, malloc_pinned: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "malloc_thresholds_pinned": malloc_pinned,
    }


def run_workload(args) -> tuple:
    """The run's result, and the factors its untraced times were scaled by."""
    import_package()
    import numpy as np

    import speed
    from oracle import polar_errors
    from spans import SELF_TIME_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    # The rank-1 quality warnings carry the ratio in their text, so each one
    # would be printed; they say nothing the metrics do not.
    warnings.filterwarnings("ignore", message="rank-1 quality ratio")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def timed(op, name, fn):
        if tracer:
            tracer.op = op
            span = tracer.open(name)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            durations_of[op] = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
                # The span's own duration, so that self times add up to it.
                durations_of[op] = tracer.spans[span]["end"] - tracer.spans[span]["start"]
            else:
                # How fast the machine ran just then (speed.py).
                kernel_of[op] = speed.timed_kernel()

    durations_of, kernel_of = {}, {}
    work = WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        work.prepare(args.seed, str(workdir))
        setup_ops = []
        while len(setup_ops) < SETUP_REPEATS or sum(durations_of[op] for op in setup_ops) < SETUP_SECONDS:
            setup_ops.append(f"setup{len(setup_ops)}")
            timed(setup_ops[-1], "setup", work.setup)
        if tracer:
            tracer.op = "check"
        work.make_checkers()
        work.before(0)
        timed("warmup", "op", lambda: work.run(0))

        attempted = failed = beyond_noise = rounds = 0
        op_ids, op_times, rms, angle_max, self_test = [], [], [], [], None
        start = time.perf_counter()
        while True:
            for i in range(work.cases):
                work.before(i)
                op = attempted
                attempted += 1
                try:
                    out = timed(op, "op", lambda: work.run(i))
                    if tracer:
                        tracer.op = "check"
                    V, readings, problems = work.check(i, out)
                except Exception:  # a raising operation counts as failed
                    problems = [traceback.format_exc()]
                if problems:
                    failed += 1
                    print(f"op {op} (case {i}) failed: {'; '.join(problems)}", file=sys.stderr)
                    continue
                checker = work.checkers[i]
                op_ids.append(op)
                op_times.append(durations_of[op])
                beyond_noise += checker.beyond_noise(V, readings)
                mag, ang = polar_errors(V, checker.V_true)
                rms.append(float(np.sqrt(np.mean(mag * mag))))
                angle_max.append(float(ang.max()))
                if self_test is None:
                    self_test = checker.self_test(V, readings)
                    for p in self_test:
                        print(f"self-test: {p}", file=sys.stderr)
            rounds += 1
            # Stop at the round boundary nearest to the requested length.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(op_ids)} passing operations, {beyond_noise} beyond the noise model",
          file=sys.stderr)
    correct = bool(op_ids) and self_test == []
    scales = {}
    if tracer:
        metrics = layer_metrics(tracer, op_ids, setup_ops)
        metrics["bench.op_s"] = statistics.median(op_times) if op_times else 0.0
        wall = sum(op_times) / len(op_times) if op_times else 0.0
        metrics["bench.op_mean_s"] = wall
        covered = metrics["bench.uncovered_s"] + sum(
            metrics[k] for k in SELF_TIME_METRICS.values()
        )
        if not abs(covered - wall) <= 1e-6 * max(wall, 1e-3):
            print(f"trace: self times sum to {covered} s per operation, wall {wall} s",
                  file=sys.stderr)
            correct = False
        metrics["check.beyond_noise_ratio"] = beyond_noise / len(op_ids) if op_ids else 0.0
        units = {k: ("ms" if k.endswith("_ms") else "s" if k.endswith("_s") else "count")
                 for k in metrics}
        units["solver.polish_kept_ratio"] = units["check.beyond_noise_ratio"] = "ratio"
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"{args.workload}-seed{args.seed}-spans.json"))
    else:
        # Times at the reference speed: each phase's times scaled by how much
        # slower or faster than REFERENCE_S the kernel ran in that phase.
        scales = {
            "setup": speed.REFERENCE_S / statistics.mean(kernel_of[op] for op in setup_ops),
            "op": speed.REFERENCE_S / statistics.mean(kernel_of[op] for op in range(attempted)),
        }
        metrics = {
            "setup_s": statistics.median(durations_of[op] for op in setup_ops) * scales["setup"],
            "op_s": (statistics.median(op_times) if op_times else 0.0) * scales["op"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "vmag_rms_pu": statistics.median(rms) if rms else 0.0,
            "angle_max_deg": statistics.median(angle_max) if angle_max else 0.0,
        }
        units = UNITS
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-ops.json", "w",
              encoding="utf-8") as fh:
        json.dump({
            "op_s": op_times, "vmag_rms_pu": rms, "angle_max_deg": angle_max,
            "setup_s": [durations_of[op] for op in setup_ops],
            "kernel_after_setup_s": [kernel_of.get(op) for op in setup_ops],
            "kernel_after_op_s": [kernel_of.get(op) for op in range(attempted)],
        }, fh)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, scales


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = res = json.loads(lines[-1])
        shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Thread counts must be set before numpy loads its BLAS.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    malloc_pinned = pin_malloc_thresholds()
    result, scales = run_workload(args)
    record = run_record(args.workload, args.seed, args.seconds, args.trace, malloc_pinned)
    record["speed_scales"] = scales
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
