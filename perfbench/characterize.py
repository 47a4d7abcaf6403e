"""Measure the input properties each oracle/router workload targets.

    PYTHONPATH=src python3 perfbench/characterize.py [--seed N] [--chunks C]

Generates the same chunks as worker.py and reports, for solve_mix, the
unlinked share and which solver stage decided each problem (fast-no
rejection, greedy routing or the complete DFS), and for route_polytope the
router branch mix.  The stage split counts calls of the private
`cubelink.oracle._solve_dfs`, so it is a one-off characterization, not a
benchmark metric.
"""

from __future__ import annotations

import argparse
import json

from cubelink import linker, oracle

from worker import BRANCHES, RoutePolytope, SolveMix


def solve_mix_split(seed: int, chunks: int) -> dict:
    wl = SolveMix(seed, smoke=False, wrong=False)
    wl.setup()
    dfs_calls = 0
    solve_dfs = oracle._solve_dfs

    def counted(*args):
        nonlocal dfs_calls
        dfs_calls += 1
        return solve_dfs(*args)

    oracle._solve_dfs = counted
    n = unlinked = by_dfs = unlinked_by_dfs = 0
    try:
        for c in range(chunks):
            for p in wl.chunk(c):
                before = dfs_calls
                got = oracle.solve_linkage(p)
                n += 1
                dfs = dfs_calls > before
                by_dfs += dfs
                unlinked += got is None
                unlinked_by_dfs += dfs and got is None
    finally:
        oracle._solve_dfs = solve_dfs
    return {"problems": n, "unlinked_frac": unlinked / n,
            "fast_no_frac": (unlinked - unlinked_by_dfs) / n,
            "greedy_frac": (n - unlinked - by_dfs + unlinked_by_dfs) / n,
            "dfs_frac": by_dfs / n}


def route_branch_mix(seed: int, chunks: int) -> dict:
    wl = RoutePolytope(seed, smoke=False, wrong=False)
    wl.setup()
    counter: dict = {}
    linker.BRANCH_COUNTER = counter
    n = 0
    try:
        for c in range(chunks):
            for inp in wl.chunk(c):
                wl.call(inp)
                n += 1
    finally:
        linker.BRANCH_COUNTER = None
    mix = {b: counter.pop(b, 0) / n for b in BRANCHES}
    mix["other"] = sum(counter.values()) / n
    return {"routings": n, "branch_per_routing": mix}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--chunks", type=int, default=5)
    args = ap.parse_args()
    print(json.dumps({"solve_mix": solve_mix_split(args.seed, args.chunks),
                      "route_polytope": route_branch_mix(args.seed,
                                                         args.chunks)},
                     indent=1))


if __name__ == "__main__":
    main()
