"""cubelink benchmark runner.

Run from the root of a checkout (nothing to build; the library is pure
Python and is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds T] [--out FILE]
    python3 perfbench/run.py --smoke

One workload run starts perfbench/worker.py in a fresh single process
(jobs=1) and prints every metric by name and unit, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
gives the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones.  setup_s is the median of several fresh processes, each timed from
spawn to its first timed call and converted to reference seconds (see
worker.KERNEL_REF_S).

--all runs every workload untraced once and traced twice, checks that the
counts agree across the three runs, and reports the tracing overhead.
--smoke runs tiny sizes and checks the metric names and units against
BENCHMARK.json, and that a wrong expected value fails the output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7           # fresh processes timed for setup_s
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


class BenchError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """(spawn time, the worker's JSON result) of one fresh worker."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    t_spawn = now()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} exceeded {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return t_spawn, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, wrong: bool = False) -> dict:
    """One benchmark run: the contract's result plus diagnostics."""
    base = ["--workload", name, "--seed", str(seed)]
    flags = (["--smoke"] if smoke else []) + (
        ["--wrong-expectation"] if wrong else [])
    setups: list[float] = []           # reference seconds
    setups_wall: list[float] = []
    if not trace:
        # the first process only warms the bytecode cache
        n = 2 if smoke else SETUP_SAMPLES
        for i in range(n):
            t_spawn, r = call_worker(base + flags + ["--seconds", "0",
                                                     "--setup-only"],
                                     SETUP_TIMEOUT_S)
            if i:
                setups_wall.append(r["t_ready"] - t_spawn)
                setups.append(setups_wall[-1] / r["setup_speed"])
    args = base + flags + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        args += ["--spans-out", str(OUT_DIR / f"spans-{name}.tsv")]
    t_spawn, r = call_worker(args, WORKER_TIMEOUT_S)
    metrics = {}
    if not trace:
        setups_wall.append(r["t_ready"] - t_spawn)
        setups.append(setups_wall[-1] / r["setup_speed"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        r["wall"]["setup_s"] = statistics.median(setups_wall)
    metrics.update(r["metrics"])
    if Path(r["cubelink"]).resolve() != (SRC / "cubelink").resolve():
        raise BenchError(f"cubelink imported from {r['cubelink']}, "
                         f"not from {SRC}")
    return {"correct": r["failed"] == 0 and r["attempted"] > 0,
            "attempted": r["attempted"], "failed": r["failed"],
            "metrics": metrics, "counts": r["counts"], "errors": r["errors"],
            "ops": r["ops"], "timed_s": r["timed_s"], "chunks": r["chunks"],
            "wall": r["wall"],
            "latency_samples": r["latency_samples"],
            "setup_samples": len(setups)}


def print_run(name: str, res: dict) -> None:
    print(f"[{name}] attempted {res['attempted']}, failed {res['failed']} "
          f"(failed_frac {res['failed'] / res['attempted']:.6g}); "
          f"{res['ops']} ops in {res['timed_s']:.3f} s over "
          f"{res['chunks']} chunks; latency samples {res['latency_samples']}; "
          f"setup samples {res['setup_samples']}")
    for k, m in res["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print("  wall clock: " + ", ".join(f"{k} = {v:.6g}"
                                       for k, v in res["wall"].items()))
    for e in res["errors"]:
        print(f"  error: {e}")


def contract(res: dict) -> dict:
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- --all -------------------------------------------------------------------


def run_all(seed: int, seconds: float, out: str | None) -> int:
    bench = load_benchmark()
    summary: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        plain = run_workload(name, seed, seconds, 0)
        traced = [run_workload(name, seed, seconds, 1) for _ in range(2)]
        print_run(name, plain)
        print_run(name + " traced", traced[0])
        layer = {k: m["value"] for k, m in traced[0]["metrics"].items()}
        # counts: every count metric repeats between the two traced runs,
        # and the ones an untraced run also knows agree with it
        count_names = [k for k, m in traced[0]["metrics"].items()
                       if m["unit"] in ("count", "ratio")]
        diffs = [k for k in count_names
                 if traced[0]["metrics"][k] != traced[1]["metrics"][k]]
        diffs += [k for k, v in plain["counts"].items() if layer[k] != v]
        overhead = (plain["metrics"]["ops_per_ref_s"]["value"]
                    - layer["trace.ops_per_ref_s"])
        self_sum = sum(v for k, v in layer.items()
                       if k.endswith("_s") and not k.startswith("trace.")
                       and k != "oracle.campaign_s")
        print(f"  counts repeat exactly: {not diffs} {diffs or ''}")
        print(f"  tracing overhead: {overhead:.6g} ops/ref_s "
              f"({overhead / plain['metrics']['ops_per_ref_s']['value']:.1%})")
        print(f"  layer self times sum to {self_sum:.6g} s; traced calls "
              f"{layer['trace.op_s']:.6g} s + set-up "
              f"{layer['trace.setup_s']:.6g} s")
        adds_up = abs(self_sum - layer["trace.op_s"]
                      - layer["trace.setup_s"]) < 1e-6
        ok &= plain["correct"] and all(t["correct"] for t in traced) \
            and not diffs and adds_up
        summary["workloads"][name] = {
            "untraced": contract(plain), "traced": contract(traced[0]),
            "wall": plain["wall"], "count_mismatches": diffs,
            "tracing_overhead_ops_per_ref_s": overhead,
            "layer_self_sum_s": self_sum}
    if out:
        with open(out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


# -- --smoke -----------------------------------------------------------------


def run_smoke() -> int:
    bench = load_benchmark()
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            res = run_workload(name, 0, 0, trace, smoke=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics/units "
                                f"differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not res["correct"]:
                problems.append(f"{name} trace {trace}: {res['errors']}")
        bad = run_workload(name, 0, 0, 0, smoke=True, wrong=True)
        if bad["correct"] or not bad["failed"]:
            problems.append(f"{name}: a wrong expected value passed the "
                            f"output check")
        print(f"[{name}] smoke: metrics {len(want[0])}+{len(want[1])} "
              f"named with units; wrong expectation fails "
              f"{bad['failed']}/{bad['attempted']}")
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({"correct": not problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="--all: write the summary JSON here")
    args = ap.parse_args(argv)
    if not (SRC / "cubelink" / "__init__.py").is_file():
        print(f"error: no cubelink sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return run_smoke()
        seconds = args.seconds
        if seconds is None:
            seconds = load_benchmark()["run_seconds"]
        if args.all:
            return run_all(args.seed, seconds, args.out)
        res = run_workload(args.workload, args.seed, seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_run(args.workload, res)
    print(json.dumps(contract(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
