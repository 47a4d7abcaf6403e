"""One cubelink benchmark workload, run in a fresh single process.

run.py starts this file with the checkout's `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1

The worker builds its inputs from the seed, then runs a closed loop of one
caller: chunk after chunk of deterministic inputs, each call made after
the previous one returns, until the timed calls add up to --seconds.  Input
generation and output checks happen between chunks, outside the timed
region.  Timed seconds are converted to reference seconds by a
calibration kernel run around every chunk (see KERNEL_REF_S), and
ops_per_ref_s is the median of the per-chunk rates.  Counts (orbits,
unlinked share, router branches, call counts) are taken over the count
window, the first few chunks, which every run completes, so they repeat
exactly for a seed in traced and untraced runs alike.

With --trace 1 the public names one layer calls in another are rebound to
span recorders (see tracing.py) and the per-layer numbers are the self
times and call counts of the count window.  The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import cubelink
from cubelink import (cli, complexes, cube, generators, graphs, linker,
                      oracle, symmetry)
from cubelink.linker import ProofStepError
from cubelink.oracle import LinkageProblem, SearchBudgetExceeded, pairings

from reference import brute_linked
from tracing import Tracer, self_times

OP_ERRORS = (ProofStepError, SearchBudgetExceeded, ValueError)

# Router step ids that link_in_polytope can mark on an odd-dimensional
# complex; any other id lands in linker.branch.other.
BRANCHES = (
    "polytope.plain", "polytope.blocked.swap", "polytope.blocked.thread",
    "star.one_out", "star.one_out.antipodal", "star.pair_only",
    "star.pair_only.multi", "star.spread", "star.spread.far_side",
    "star.spread.same_side", "star.packed", "star.packed.high.antipode",
    "star.packed.high.free", "star.packed.high.mate",
    "star.packed.low.all_near", "star.packed.low.antipode",
    "star.packed.low.pair_far", "star.packed.low.pair_near",
    "star.packed.low.split",
)

# (owner, attribute, span name) for every cross-layer call the traced run
# records.  Spans sharing a name are summed.
REBINDS = (
    (cli, "main", "cli.main"),
    (cli, "verify_k_linked", "oracle.verify"),
    (cli, "verify_strongly_linked", "oracle.verify"),
    (symmetry, "canonical_marked_instances", "symmetry.canonical"),
    (symmetry, "canonical_subsets", "symmetry.subsets"),
    (symmetry, "group_tables", "symmetry.group_tables"),
    (oracle, "solve_linkage", "oracle.solve"),
    (linker, "solve_linkage", "oracle.solve"),
    (oracle.Linkage, "check_against", "oracle.validate"),
    (linker, "menger_paths", "oracle.menger"),
    (graphs, "disjoint_paths", "graphs.disjoint_paths"),
    (graphs.Graph, "restrict", "graphs.subgraph"),
    (graphs.Graph, "without", "graphs.subgraph"),
    (linker, "vertex_star", "complexes.vertex_star"),
    (linker, "injection_into_antistar", "complexes.injection"),
    (complexes.PolytopalComplex, "chart", "complexes.chart"),
    (complexes.PolytopalComplex, "graph", "complexes.graph"),
    (linker, "link_in_polytope", "linker.link_in_polytope"),
    (linker, "link_in_star", "linker.link_in_star"),
    (linker, "detect_config_dF", "linker.detect"),
    (generators, "cube_boundary", "generators.build"),
    (generators, "glued_cubes", "generators.build"),
    (cube, "cube_graph", "generators.build"),
)

# span name -> (metric base, also report a call count).  The `<base>_s`
# metrics are self times over the count window and the set-up before it, so
# they add up to trace.op_s (timed calls) + trace.setup_s (set-up builds).
SPAN_METRICS = {
    "cli.main": ("cli.self", False),
    "oracle.verify": ("oracle.verify", False),
    "symmetry.canonical": ("symmetry.canonical", False),
    "symmetry.subsets": ("symmetry.subsets", False),
    "symmetry.group_tables": ("symmetry.group_tables", False),
    "oracle.solve": ("oracle.solve", True),
    "oracle.validate": ("oracle.validate", True),
    "oracle.menger": ("oracle.menger", True),
    "graphs.disjoint_paths": ("graphs.disjoint_paths", True),
    "graphs.subgraph": ("graphs.subgraph", True),
    "complexes.vertex_star": ("complexes.vertex_star", True),
    "complexes.chart": ("complexes.chart", True),
    "complexes.graph": ("complexes.graph", True),
    "complexes.injection": ("complexes.injection", True),
    "linker.link_in_polytope": ("linker.self", False),
    "linker.link_in_star": ("linker.link_in_star", True),
    "linker.detect": ("linker.detect", True),
    "generators.build": ("generators.build", True),
}


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for base, with_calls in SPAN_METRICS.values():
        units[f"{base}_s"] = "s"
        if with_calls:
            units[f"{base}_calls"] = "count"
    units.update({"symmetry.orbits": "count", "oracle.campaign_s": "s",
                  "oracle.unlinked_frac": "ratio"})
    for b in BRANCHES + ("other",):
        units[f"linker.branch.{b}"] = "count"
    units.update({"trace.ops": "count", "trace.spans": "count",
                  "trace.op_s": "s", "trace.setup_s": "s",
                  "trace.ops_per_ref_s": "1/ref_s"})
    return units


E2E_UNITS = {"setup_s": "s", "ops_per_ref_s": "1/ref_s",
             "op_ref_ms_p50": "ref_ms", "op_ref_ms_p99": "ref_ms",
             "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cubelink.cli.main in-process, as a user's shell would drive it;
    the report is captured, progress lines are dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def chunk_rng(name: str, seed: int, c: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{c}")


class Outcome:
    """What one call produced: ops it covered, whether its output is
    correct, whether it answered "no linkage", and the cli verdict."""

    __slots__ = ("ops", "ok", "unlinked", "note", "verdict")

    def __init__(self, ops: int, ok: bool, unlinked: bool = False,
                 note: str = "", verdict: dict | None = None):
        self.ops, self.ok, self.unlinked = ops, ok, unlinked
        self.note, self.verdict = note, verdict


class CliWorkload:
    """A campaign driven through cubelink.cli.main."""

    root = "cli.main"
    rescale = True

    def setup(self) -> None:
        pass

    def call(self, argv):
        return run_cli(argv)

    def check(self, argv, out) -> Outcome:
        code, text = out
        if code != 0 or not text:
            return Outcome(0, False, note=f"cli exit status {code}")
        v = json.loads(text)["verdict"]
        ops, note = self.judge(v)
        return Outcome(ops, not note, v["status"] == "counterexample", note, v)


# -- workloads -----------------------------------------------------------------


class OrbitSweep(CliWorkload):
    """Q_5 strongly 2-linked up to symmetry: symmetry does nearly all the
    work; the oracle decides 1,297 orbit representatives."""

    name = "orbit_sweep"
    window = 1
    # one 17-23 s numpy-bound call: a pure-Python kernel at its two ends
    # adds noise instead of removing it, so its seconds stay wall seconds
    rescale = False

    def __init__(self, seed: int, smoke: bool, wrong: bool):
        self.dim = 4 if smoke else 5
        # (orbits, group order, labelled total C(2^d, 5) * 5 * 3)
        self.expect = {4: (231, 384, 65520), 5: (1297, 3840, 3020640)}[self.dim]
        if wrong:
            self.expect = (self.expect[0] + 1,) + self.expect[1:]

    def chunk(self, c: int) -> list:
        return [["verify", "--kind", "cube", "--dim", str(self.dim),
                 "--check", "strongly_linked", "--k", "2", "--symmetry",
                 "--jobs", "1"]]

    def judge(self, v: dict) -> tuple[int, str]:
        d = v.get("detail", {})
        got = (d.get("orbits"), d.get("group_order"), d.get("labelled_total"))
        if v["status"] == "verified" and got == self.expect:
            return got[2], ""
        return 0, f"verdict {v['status']} {got}, want {self.expect}"


class SampledCampaign(CliWorkload):
    """bicube_5 3-linked on seeded samples: the oracle fast path, with
    symmetry and the router bypassed."""

    name = "sampled_campaign"
    window = 2

    def __init__(self, seed: int, smoke: bool, wrong: bool):
        self.seed = seed
        self.samples = 100 if smoke else 1000
        self.expect = self.samples + (1 if wrong else 0)

    def chunk(self, c: int) -> list:
        rng = chunk_rng(self.name, self.seed, c)
        return [["verify", "--kind", "glued_chain", "--dim", "5",
                 "--chain-length", "2", "--check", "k_linked", "--k", "3",
                 "--mode", "sampled", "--samples", str(self.samples),
                 "--seed", str(rng.randrange(2 ** 31)), "--jobs", "1"]
                for _ in range(4)]

    def judge(self, v: dict) -> tuple[int, str]:
        if v["status"] == "sampled_pass" and v["checked"] == self.expect:
            return v["checked"], ""
        return 0, f"verdict {v['status']} checked {v['checked']}"


class SolveMix:
    """4-pair problems on Q_4 (8 of 16 vertices, random pairing): the only
    workload where fast-no and the complete DFS do real work."""

    name = "solve_mix"
    root = "oracle.solve"
    window = 5
    rescale = True
    # unlinked answers cross-checked by brute force per window chunk
    reference_checks = 2

    def __init__(self, seed: int, smoke: bool, wrong: bool):
        self.seed = seed
        self.size = 100 if smoke else 2000
        self.wrong = wrong

    def setup(self) -> None:
        self.g = cube.cube_graph(4)

    def chunk(self, c: int) -> list:
        rng = chunk_rng(self.name, self.seed, c)
        out = []
        for _ in range(self.size):
            ch = rng.sample(range(16), 8)
            out.append(LinkageProblem(
                self.g, tuple((ch[2 * i], ch[2 * i + 1]) for i in range(4))))
        return out

    def call(self, p):
        return oracle.solve_linkage(p)

    def check(self, p, out) -> Outcome:
        if out is None:
            return Outcome(1, True, unlinked=True)
        try:
            out.check_against(p)
        except ValueError as e:
            return Outcome(1, False, note=str(e))
        return Outcome(1, True)

    def cross_check(self, c: int, inputs, outcomes) -> None:
        """Brute-force a seeded subsample of the unlinked answers; a linked
        one marks its outcome wrong."""
        unlinked = [i for i, o in enumerate(outcomes) if o.unlinked]
        rng = chunk_rng(self.name + ".reference", self.seed, c)
        pick = rng.sample(unlinked, min(self.reference_checks, len(unlinked)))
        wrong_answer = not self.wrong    # brute force finding a linkage
        for i in pick:
            p = inputs[i]
            if brute_linked(p.graph.adj, p.graph.active, p.pairs) == wrong_answer:
                outcomes[i].ok = False
                outcomes[i].note = f"reference disagrees on {p.pairs}"


class RoutePolytope:
    """link_in_polytope on glued_cubes(5, 2), 6 terminals, random pairing
    (the criterion-8 generator): complexes, graphs and the linker case
    analysis do the work."""

    name = "route_polytope"
    root = "linker.link_in_polytope"
    window = 4
    rescale = True

    def __init__(self, seed: int, smoke: bool, wrong: bool):
        self.seed = seed
        self.size = 5 if smoke else 50
        self.wrong = wrong

    def setup(self) -> None:
        self.c = generators.glued_cubes(5, 2)
        self.g = self.c.graph()
        self.ids = sorted(self.c.vertex_ids)

    def chunk(self, c: int) -> list:
        rng = chunk_rng(self.name, self.seed, c)
        out = []
        for _ in range(self.size):
            chosen = rng.sample(self.ids, 6)
            prs = list(pairings(tuple(chosen)))
            out.append((chosen, prs[rng.randrange(len(prs))]))
        return out

    def call(self, inp):
        return linker.link_in_polytope(self.c, *inp)

    def check(self, inp, out) -> Outcome:
        pairs = inp[1][1:] + inp[1][:1] if self.wrong else inp[1]
        try:
            out.check_against(LinkageProblem(self.g, pairs))
        except ValueError as e:
            return Outcome(1, False, note=str(e))
        return Outcome(1, True)


WORKLOADS = {w.name: w for w in (OrbitSweep, SampledCampaign, SolveMix,
                                 RoutePolytope)}


# -- the measuring loop ----------------------------------------------------------


def percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return float(sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)])


# -- host speed calibration --------------------------------------------------
#
# The host's CPU speed swings by up to 2x over minutes (CPU time follows
# wall time, so it is not preemption).  Every chunk is therefore bracketed
# by a fixed pure-Python kernel, and timed seconds are converted to
# reference seconds: one kernel run is KERNEL_REF_S reference seconds.  The
# kernel uses no cubelink code, so a change to cubelink cannot move it.
# Workloads with rescale = False report wall seconds as reference seconds
# for their timed calls; set-up time is rescaled on every workload.

KERNEL_REF_S = 0.005


def _kernel() -> int:
    """Fixed pure-Python work: bit scans, integer arithmetic, dict stores."""
    acc = 0
    table = {}
    for i in range(2000):
        m = (i * 2654435761) & 0xFFFFFFFF
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        table[i & 255] = acc
    return acc + len(table)


def kernel_s() -> float:
    """Median wall time of three kernel runs."""
    ts = []
    for _ in range(3):
        t0 = now()
        _kernel()
        ts.append(now() - t0)
    return sorted(ts)[1]


def measure(wl, seconds: float, tracer: Tracer | None) -> dict:
    """Run chunks until the timed calls add up to `seconds` and the count
    window (the first `wl.window` chunks) is complete."""
    counter: dict = {}
    linker.BRANCH_COUNTER = counter          # router branches, window only
    inputs = wl.chunk(0)
    t_ready = now()
    k_setup = k_before = kernel_s()
    # per-call latencies, wall and reference; 8 bytes a call keeps
    # peak_rss_mb flat
    lat, lat_ref = array("d"), array("d")
    rates: list[float] = []                 # wall ops per second, per chunk
    ref_rates: list[float] = []             # ops per reference second
    speeds: list[float] = []                # host seconds per reference second
    timed = 0.0
    attempted = failed = ops = 0
    errors: list[str] = []
    window_end = 0
    window_ops = unlinked = 0
    campaign_s = 0.0
    orbits = 0
    c = 0
    while True:
        outs = []
        chunk_lat = array("d")
        if tracer is not None:
            tracer.recording = True
        t_chunk = now()
        for inp in inputs:
            t0 = now()
            try:
                outs.append(wl.call(inp))
            except OP_ERRORS as e:
                outs.append(e)
            chunk_lat.append(now() - t0)
        dt = now() - t_chunk
        timed += dt
        if tracer is not None:
            tracer.recording = False
        k_after = kernel_s()
        speed = ((k_before + k_after) / 2 / KERNEL_REF_S
                 if wl.rescale else 1.0)
        k_before = k_after
        outcomes = [Outcome(0, False, note=f"{type(o).__name__}: {o}")
                    if isinstance(o, OP_ERRORS) else wl.check(inp, o)
                    for inp, o in zip(inputs, outs)]
        if c < wl.window:
            if tracer is not None:
                window_end = len(tracer.spans)
            if hasattr(wl, "cross_check"):
                wl.cross_check(c, inputs, outcomes)
            for o in outcomes:
                if o.verdict is not None:    # cli report: campaign timer
                    campaign_s += o.verdict["elapsed_ms"] / 1000
                    orbits = o.verdict.get("detail", {}).get("orbits", 0)
            window_ops += len(outcomes)
            unlinked += sum(o.unlinked for o in outcomes)
        chunk_ops = sum(o.ops for o in outcomes)
        ops += chunk_ops
        rates.append(chunk_ops / dt)
        ref_rates.append(chunk_ops * speed / dt)
        speeds.append(speed)
        lat.extend(chunk_lat)
        lat_ref.extend(x / speed for x in chunk_lat)
        for o in outcomes:
            attempted += 1
            if not o.ok:
                failed += 1
                if len(errors) < 5:
                    errors.append(o.note)
        c += 1
        if c == wl.window:
            linker.BRANCH_COUNTER = None
        if c >= wl.window and timed >= seconds:
            break
        inputs = wl.chunk(c)
    counts = {"symmetry.orbits": orbits,
              "oracle.unlinked_frac": unlinked / window_ops,
              "trace.ops": window_ops}
    for b in BRANCHES:
        counts[f"linker.branch.{b}"] = counter.pop(b, 0)
    counts["linker.branch.other"] = sum(counter.values())
    lat = np.sort(np.frombuffer(lat))
    lat_ref = np.sort(np.frombuffer(lat_ref))
    return {"t_ready": t_ready, "setup_speed": k_setup / KERNEL_REF_S,
            "attempted": attempted, "failed": failed,
            "ops": ops, "timed_s": timed, "chunks": c,
            "latency_samples": len(lat),
            "ops_per_ref_s": statistics.median(ref_rates),
            "op_ref_ms_p50": percentile(lat_ref, 0.50) * 1e3,
            "op_ref_ms_p99": percentile(lat_ref, 0.99) * 1e3,
            "wall": {"ops_per_s": statistics.median(rates),
                     "op_ms_p50": percentile(lat, 0.50) * 1e3,
                     "op_ms_p99": percentile(lat, 0.99) * 1e3,
                     "host_s_per_ref_s": statistics.median(speeds)},
            "counts": counts, "campaign_s": campaign_s,
            "window_end": window_end, "errors": errors}


def layer_metrics(wl, tracer: Tracer, m: dict) -> dict[str, float]:
    spans = tracer.spans[:m["window_end"]]
    red = self_times(spans, {wl.root})
    out: dict[str, float] = {}
    for name, (base, with_calls) in SPAN_METRICS.items():
        out[f"{base}_s"] = red["self_s"].get(name, 0.0)
        if with_calls:
            out[f"{base}_calls"] = red["calls"].get(name, 0)
    out["oracle.campaign_s"] = m["campaign_s"]
    out.update(m["counts"])
    out["trace.ops"] = red["ops"]
    out["trace.spans"] = len(spans)
    out["trace.op_s"] = red["op_s"]
    out["trace.setup_s"] = red["setup_s"]
    out["trace.ops_per_ref_s"] = m["ops_per_ref_s"]
    unknown = set(red["calls"]) - set(SPAN_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a metric: {sorted(unknown)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first timed call and report its time")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="check outputs against a deliberately wrong "
                         "expected value (the output check must fail)")
    ap.add_argument("--spans-out", default=None,
                    help="write the traced run's spans to this file")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        for owner, attr, name in REBINDS:
            tracer.rebind(owner, attr, name)
        tracer.recording = True              # set-up builds are spans too
    wl = WORKLOADS[args.workload](args.seed, args.smoke,
                                  args.wrong_expectation)
    wl.setup()
    if args.setup_only:
        wl.chunk(0)
        t_ready = now()
        print(json.dumps({"t_ready": t_ready,
                          "setup_speed": kernel_s() / KERNEL_REF_S}))
        return 0
    m = measure(wl, args.seconds, tracer)
    result = {"t_ready": m["t_ready"], "setup_speed": m["setup_speed"],
              "cubelink": os.path.dirname(cubelink.__file__),
              **{k: m[k] for k in ("attempted", "failed", "ops", "timed_s",
                                   "chunks", "latency_samples", "wall",
                                   "counts", "errors")}}
    if tracer is None:
        values = {
            "ops_per_ref_s": m["ops_per_ref_s"],
            "op_ref_ms_p50": m["op_ref_ms_p50"],
            "op_ref_ms_p99": m["op_ref_ms_p99"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    else:
        values = layer_metrics(wl, tracer, m)
        units = layer_metric_units()
        if args.spans_out:
            tracer.write(args.spans_out)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in values.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
