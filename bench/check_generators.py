"""One-time check that the benchmark's input generators reproduce the test
suite's feeders, truth states and measurement plans.

    python3 bench/check_generators.py

Compares ``feeders`` with ``tests/netgen.py`` (chain, tree and multiphase
documents, truth states) and with the package's ``default_plan`` and
``full_plan`` on a range of sizes and seeds.  Exits 1 on the first mismatch.
The workloads never import the test helpers; this script is the only place
that does.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import feeders  # noqa: E402
from sdpse.measurements import default_plan, full_plan  # noqa: E402
from sdpse.sdpmat import build_matrix_set  # noqa: E402


def load_netgen():
    spec = importlib.util.spec_from_file_location("netgen", ROOT / "tests" / "netgen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main() -> int:
    netgen = load_netgen()
    docs = [("chain", n, s, netgen.chain_doc(n, seed=s), feeders.chain_doc(n, seed=s))
            for n in (2, 6, 10, 25) for s in (0, 3, 17)]
    docs += [("tree", n, s, netgen.tree_doc(n, seed=s, trunk_bias=b),
              feeders.tree_doc(n, seed=s, trunk_bias=b))
             for n in (5, 34, 96, 102) for s in (0, 7, 11) for b in (0, 3, 4)]
    docs.append(("multiphase", 38, 1303, netgen.multiphase_feeder_doc(),
                 feeders.multiphase_feeder_doc()))
    checked = 0
    for kind, n, seed, theirs, ours in docs:
        if theirs != ours:
            print(f"{kind} n={n} seed={seed}: documents differ")
            return 1
        model = netgen.model_from(theirs)
        if feeders.node_list(ours) != [(nd.bus, nd.phase) for nd in model.nodes]:
            print(f"{kind} n={n} seed={seed}: node order differs")
            return 1
        for state_seed in (0, 42, 100):
            if not np.array_equal(
                netgen.random_state(model, seed=state_seed),
                feeders.random_state(ours, seed=state_seed),
            ):
                print(f"{kind} n={n} seed={seed}: truth state {state_seed} differs")
                return 1
        mats = build_matrix_set(model)
        vm = list(range(0, model.n_nodes, 3))
        if feeders.one_sided_plan(ours, vm) != default_plan(model, mats, vmag_nodes=vm):
            print(f"{kind} n={n} seed={seed}: one-sided plan differs")
            return 1
        if feeders.full_plan(ours) != full_plan(model, mats):
            print(f"{kind} n={n} seed={seed}: full plan differs")
            return 1
        checked += 1
    print(f"ok: {checked} feeders, their truth states and plans match the test suite")
    return 0


if __name__ == "__main__":
    sys.exit(main())
