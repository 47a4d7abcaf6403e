"""Command line driver for verification and construction campaigns.

Subcommands:
  verify     run a named check over an instance family, print a verdict
  construct  route one explicit problem and print the certificate
  inspect    print face counts and basic invariants of an instance
  bench      time the core operations on an instance

Reports go to stdout in json, csv, or text form; progress lines go to
stderr.  Exit status: 0 = verified / sampled pass / linkage found,
1 = counterexample or refusal (the report carries the witness),
2 = usage, input, or budget error, 3 = an internal proof step of the
constructive router failed.

The same campaign with the same seed prints a byte-identical report
except for elapsed_ms fields (and the per_sec rates of bench).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict, dataclass

from .complexes import (ComplexError, PolytopalComplex, antistar,
                        technical_lemma_check, vertex_star)
from .cube import associated_counts_bulk
from .generators import (InstanceSpec, build_complex, build_star,
                         default_star_center, star_instance)
from .graphs import Graph, bits, vertex_connectivity
from .linker import (ConfigDFRefusal, ProofStepError, StarProblem,
                     detect_config_dF, link_in_polytope, link_in_star,
                     strong_link_even)
from .oracle import (CAMPAIGN_BATCH, DEFAULT_BUDGET, InvalidLinkage,
                     Linkage, LinkageProblem, SearchBudgetExceeded,
                     _linked_batches, _sampled_batch, _sampled_batches,
                     campaign, k23_witness, solve_linkage, verify_k_linked,
                     verify_strongly_linked)


class UsageError(Exception):
    """Bad flag combination or malformed input file; exits with status 2."""


# -- plumbing ------------------------------------------------------------------


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _progress_instances(n: int) -> None:
    _progress(f"progress: {n} instances")


def _spec_from_args(args) -> InstanceSpec:
    if args.kind == "from_file":
        if not args.instance:
            raise UsageError("--kind from_file needs --instance FILE")
        return InstanceSpec(kind="from_file", path=args.instance)
    if args.dim is None:
        raise UsageError("--dim is required unless --kind from_file")
    return InstanceSpec(kind=args.kind, dim=args.dim,
                        chain_length=args.chain_length or 0)


def _build(spec: InstanceSpec) -> PolytopalComplex:
    """The complex a spec names: for a star spec the star itself, where
    `build_complex` gives the polytope it lies in."""
    if spec.kind == "star_of_vertex":
        return build_star(spec).complex
    return build_complex(spec)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, value))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    elif fmt == "csv":
        rows: list = []
        _flatten("", report, rows)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        for k, v in rows:
            w.writerow([k, v])
        sys.stdout.write(buf.getvalue())
    else:
        rows = []
        _flatten("", report, rows)
        for k, v in rows:
            sys.stdout.write(f"{k}: {v}\n")
    sys.stdout.flush()


def _default_k(d: int) -> int:
    return (d + 1) // 2


def _route(c: PolytopalComplex, pairs, forbidden) -> Linkage:
    """Route `pairs` in the polytope `c`: in even dimension around the one
    vertex of `forbidden` (strong_link_even), in odd dimension with none
    forbidden (link_in_polytope)."""
    terms = [v for p in pairs for v in p]
    if (c.dim + 1) % 2 == 0:
        return strong_link_even(c, terms + list(forbidden), pairs,
                                forbidden[0])
    return link_in_polytope(c, terms, pairs)


# -- verify: the checks -----------------------------------------------------------
#
# A check maps (args, spec, complex) to (witness, checked, detail): its first
# failing instance or None, the instances checked up to and including it,
# and the verdict's detail ({} for none).  `_cmd_verify` builds the complex,
# times the check and writes the verdict.


def _check_linked(args, spec: InstanceSpec, c: PolytopalComplex,
                  strong: bool):
    if args.k is None:
        raise UsageError("--k is required for linkedness checks")
    if args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    symmetry = None
    if args.symmetry:
        if spec.kind != "cube":
            raise UsageError("--symmetry applies to --kind cube only")
        symmetry = spec.dim
    fn = verify_strongly_linked if strong else verify_k_linked
    verdict = fn(c.graph(), args.k, mode=args.mode, symmetry=symmetry,
                 samples=args.samples, seed=args.seed, budget=args.budget,
                 jobs=args.jobs, progress=_progress_instances)
    v = verdict.to_json_dict(witness_graph_repr=asdict(spec))
    return v["witness"], v["checked"], v.get("detail", {})


# -- verify: associated-pairs bound sweep ---------------------------------------


def _check_lemma6(args, spec: InstanceSpec, c: PolytopalComplex):
    import numpy as np
    if spec.kind != "cube":
        raise UsageError("the associated-pairs sweep runs on --kind cube")
    d = spec.dim
    if args.mode == "exhaustive":
        if d > 4:
            raise UsageError("exhaustive subset sweep needs dim <= 4; "
                             "use --mode sampled")
        masks = np.arange(1, 1 << (1 << d), dtype=np.uint64)
    else:
        rng = np.random.default_rng(args.seed)
        n = args.samples
        if d <= 5:
            masks = rng.integers(1, 1 << (1 << d), size=n, dtype=np.uint64)
        else:
            hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
            lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
            masks = (hi << np.uint64(32)) | lo
            masks[masks == 0] = np.uint64(1)
    counts = associated_counts_bulk(d, masks)
    sizes = np.bitwise_count(masks).astype(np.int64)
    bad = np.nonzero(counts > sizes - 1)[0]
    witness = None
    if len(bad):
        m = int(masks[bad[0]])
        witness = {"vertices": [v for v in range(1 << d) if (m >> v) & 1],
                   "associated_pairs": int(counts[bad[0]]),
                   "bound": int(sizes[bad[0]]) - 1}
    return witness, int(len(masks)), {}


# -- verify: separators and K_{2,3} -----------------------------------------------


def _check_separators(args, spec: InstanceSpec, c: PolytopalComplex):
    from .oracle import enumerate_separators
    g = c.graph()
    size = args.k if args.k is not None else spec.dim
    seps = enumerate_separators(g, size)
    witness = None
    for s in seps:
        edge = next(((u, v) for i, u in enumerate(s) for v in s[i + 1:]
                     if g.has_edge(u, v)), None)
        if edge is not None:
            witness = {"separator": list(s), "edge": list(edge)}
            break
    n = len(list(g.vertices()))
    return (witness, math.comb(n, size),
            {"separators": len(seps), "size": size})


def _check_k23(args, spec: InstanceSpec, c: PolytopalComplex):
    g = c.graph()
    found = k23_witness(g)
    witness = None if found is None else {
        "pair": list(found[:2]), "common_neighbours": list(found[2])}
    return witness, math.comb(g.num_vertices, 2), {}


# -- verify: star routing equivalence --------------------------------------------


def _centre_first(pr, centre):
    first = None
    rest = []
    for a, b in pr:
        if a == centre:
            first = (a, b)
        elif b == centre:
            first = (b, a)
        else:
            rest.append((a, b))
    if first is None:
        raise ValueError("centre must be a terminal")
    return (first,) + tuple(rest)


def _link_in_star_ordered(star: PolytopalComplex, centre: int, pairs):
    """Route `pairs` in the star of `centre`.  The router takes the centre's
    pair first; a linkage comes back with its paths in the order of `pairs`,
    path i running from pairs[i][0] to pairs[i][1].  A refusal is returned
    as is."""
    res = link_in_star(StarProblem(star, centre, _centre_first(pairs, centre)))
    if isinstance(res, ConfigDFRefusal):
        return res
    first, *rest = res.paths
    paths = []
    for s, t in pairs:
        path = first if centre in (s, t) else rest.pop(0)
        paths.append(path if path[0] == s else path[::-1])
    return Linkage(tuple(paths))


def _star_sampled(ids, centre, k, n, seed):
    """n seeded star instances as `_InstanceBatch`es: each draws 2k - 1
    vertices besides the centre, then an order of all 2k, paired two by
    two."""
    import numpy as np
    rng = random.Random(seed)
    rest = [v for v in ids if v != centre]
    for first in range(0, n, CAMPAIGN_BATCH):
        chosen = [rng.sample([centre] + rng.sample(rest, 2 * k - 1), 2 * k)
                  for _ in range(min(CAMPAIGN_BATCH, n - first))]
        yield _sampled_batch(np.array(chosen, dtype=np.int64), 0)


@dataclass(frozen=True)
class _StarCheck:
    """Campaign check on a star instance (subset, forbidden, pairs), the
    forbidden part empty: the router links iff the oracle does and the
    configuration detector finds no block, and a routed linkage is valid.
    Tallies "linked" and "refused"."""
    star: PolytopalComplex
    centre: int
    budget: int

    def __call__(self, inst, tally: dict):
        xs, _, pr = inst
        sg = self.star.graph()
        ours = _link_in_star_ordered(self.star, self.centre, pr)
        oracle = solve_linkage(LinkageProblem(sg, pr), self.budget)
        det = detect_config_dF(self.star, xs, pr, self.centre)
        got_linkage = isinstance(ours, Linkage)
        fine = ((oracle is not None) == got_linkage
                and (det is None) == got_linkage)
        if fine and got_linkage:
            try:
                ours.check_against(LinkageProblem(sg, pr))
            except ValueError:
                fine = False
        if not fine:
            return {"pairs": [list(p) for p in pr],
                    "oracle_linked": oracle is not None,
                    "detect_blocked": det is not None,
                    "construct": "linked" if got_linkage else "refused"}
        key = "linked" if got_linkage else "refused"
        tally[key] = tally.get(key, 0) + 1
        return None


def _check_star_lemma(args, spec: InstanceSpec, c: PolytopalComplex):
    centre = default_star_center(spec)
    star = (c if spec.kind == "star_of_vertex"
            else star_instance(c, centre).complex)
    d = star.dim + 1
    if d % 2 == 0:
        raise UsageError("the star routing check needs odd dimension")
    k = _default_k(d)
    ids = sorted(star.vertex_ids)
    batches = (_linked_batches(ids, k, False, pinned=centre)
               if args.mode == "exhaustive"
               else _star_sampled(ids, centre, k, args.samples, args.seed))
    run = campaign(batches, _StarCheck(star, centre, args.budget),
                   args.jobs, _progress_instances)
    return run.witness, run.checked, {
        "linked": run.tally.get("linked", 0),
        "refused": run.tally.get("refused", 0),
        "branches": dict(sorted(run.branches.items()))}


# -- verify: star structure lemmas ------------------------------------------------


def _frames(c: PolytopalComplex):
    """The technical lemma's frames (star, s1, s2, f1, f12), star by star:
    s1 a vertex of c, s2 another vertex of its star, f12 a star facet on
    s2 and f1 one off it.  A progress line follows each finished star."""
    frames = 0
    for s1 in sorted(c.vertex_ids):
        st = vertex_star(c, s1)
        sfacets = st.facets()
        for s2 in sorted(st.vertex_ids):
            if s2 == s1:
                continue
            with12 = [h for h in sfacets if s2 in st.face_vertices(h)]
            without = [h for h in sfacets if s2 not in st.face_vertices(h)]
            for f12 in with12:
                for f1 in without:
                    frames += 1
                    yield st, s1, s2, f1, f12
        _progress(f"progress: star of {s1} done ({frames} frames so far)")


def _check_technical(args, spec: InstanceSpec, c: PolytopalComplex):
    d = c.dim + 1
    if d < 4:
        raise UsageError("structure checks need dimension >= 4")
    checked = 0
    witness = None
    for f in c.facets():
        checked += 1
        asg = antistar(c, f).graph()
        n = len(list(asg.vertices()))
        kappa = vertex_connectivity(asg) if n > 1 else 0
        if n == 0 or kappa < d - 2:
            witness = {"kind": "antistar", "facet": list(c.face_vertices(f)),
                       "connectivity": kappa, "required": d - 2}
            break
    frames = 0
    if witness is None:
        for frames, (st, s1, s2, f1, f12) in enumerate(_frames(c), 1):
            rep = technical_lemma_check(st, s1, s2, f1, f12)
            if not rep.ok:
                witness = {
                    "kind": "frame", "s1": s1, "s2": s2,
                    "f1": list(st.face_vertices(f1)),
                    "f12": list(st.face_vertices(f12)),
                    "report": {
                        "strongly_connected": rep.strongly_connected,
                        "paths_avoid_f12": rep.paths_avoid_f12,
                        "antistar_connected": rep.antistar_connected,
                    }}
                break
    return (witness, checked + frames,
            {"facet_antistars": checked, "frames": frames})


# -- verify: constructive routing campaigns ---------------------------------------


@dataclass(frozen=True)
class _ConstructCheck:
    """Campaign check: the constructive router links an oracle instance
    (subset, forbidden, pairs) and its output validates.  An invalid
    linkage is the witness.  Any other router error is an internal
    failure, not a counterexample: a ProofStepError, or another ValueError
    raised as ProofStepError "construct", propagates to `main` (exit 3)."""
    complex: PolytopalComplex

    def __call__(self, inst, tally: dict):
        subset, forb, pr = inst
        try:
            _route(self.complex, pr, forb)
        except InvalidLinkage as e:
            return {"pairs": [list(p) for p in pr],
                    "forbidden": list(forb),
                    "error": str(e)}
        except ValueError as e:
            raise ProofStepError("construct", str(e)) from e
        return None


def _check_link_construct(args, spec: InstanceSpec, c: PolytopalComplex):
    d = c.dim + 1
    if d < 4:
        raise UsageError("constructive routing needs dimension >= 4")
    even = d % 2 == 0
    k = d // 2 if even else _default_k(d)
    ids = sorted(c.vertex_ids)
    batches = (_linked_batches(ids, k, even)
               if args.mode == "exhaustive"
               else _sampled_batches(ids, k, even, args.samples, args.seed))
    run = campaign(batches, _ConstructCheck(c), args.jobs,
                   _progress_instances)
    return run.witness, run.checked, {
        "branches": dict(sorted(run.branches.items()))}


_CHECKS = {
    "k_linked": functools.partial(_check_linked, strong=False),
    "strongly_linked": functools.partial(_check_linked, strong=True),
    "lemma6": _check_lemma6,
    "separators": _check_separators,
    "star_lemma": _check_star_lemma,
    "technical_lemma": _check_technical,
    "k23": _check_k23,
    "link_construct": _check_link_construct,
}
CHECKS = tuple(_CHECKS)
# checks with no sampled form: a sampled run would report an exhaustive one
_EXHAUSTIVE_ONLY = ("separators", "technical_lemma", "k23")
# checks that walk a whole polytope, not a vertex star
_POLYTOPE_ONLY = ("technical_lemma", "link_construct")


# -- subcommands ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.symmetry and (args.check not in ("k_linked", "strongly_linked")
                          or args.mode != "exhaustive"):
        raise UsageError("--symmetry applies to exhaustive k_linked and "
                         "strongly_linked checks only")
    if args.check in _EXHAUSTIVE_ONLY and args.mode != "exhaustive":
        raise UsageError(f"{args.check} has no sampled form; drop "
                         f"--mode sampled")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    spec = _spec_from_args(args)
    if spec.kind == "star_of_vertex" and args.check in _POLYTOPE_ONLY:
        raise UsageError(f"{args.check} needs a polytope, not --kind "
                         f"star_of_vertex")
    c = _build(spec)
    t0 = time.perf_counter()
    witness, checked, detail = _CHECKS[args.check](args, spec, c)
    exhaustive = args.mode == "exhaustive"
    verdict = {"status": ("counterexample" if witness is not None else
                          "verified" if exhaustive else "sampled_pass"),
               "checked": checked, "witness": witness,
               "elapsed_ms": int((time.perf_counter() - t0) * 1000),
               "seed": None if exhaustive else args.seed}
    if detail:
        verdict["detail"] = detail
    report = {"command": "verify", "check": args.check,
              "instance": asdict(spec), "k": args.k,
              "mode": args.mode, "verdict": verdict}
    _emit(report, args.format)
    return 0 if witness is None else 1


def _load_problem(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read problem file: {e}")


def _vertex_id(x, what: str) -> int:
    # bool is an int subclass, and int() would truncate 0.7 to 0
    if type(x) is not int:
        raise UsageError(f"{what} {json.dumps(x)} is not an integer vertex id")
    return x


def _refusal_json(star: PolytopalComplex, ref: ConfigDFRefusal) -> dict:
    ctx = ref.context
    out = {"facet": list(star.face_vertices(ref.facet)),
           "ridge": list(star.face_vertices(ctx.ridge))}
    if ctx.next_facet is not None:
        out["next_facet"] = list(star.face_vertices(ctx.next_facet))
    return out


def _cmd_construct(args) -> int:
    if not args.instance:
        raise UsageError("construct needs --instance FILE (problem json)")
    prob = _load_problem(args.instance)
    if not isinstance(prob, dict):
        raise UsageError("problem file must hold a json object")
    raw = prob.get("pairs")
    if not isinstance(raw, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in raw):
        raise UsageError('problem file needs "pairs": [[s, t], ...]')
    pairs = tuple((_vertex_id(s, "pair"), _vertex_id(t, "pair"))
                  for s, t in raw)
    raw = prob.get("forbidden", [])
    if not isinstance(raw, list):
        raise UsageError('"forbidden" must be a list of vertex ids')
    forbidden = [_vertex_id(v, "forbidden vertex") for v in raw]
    clash = sorted(set(forbidden) & {v for p in pairs for v in p})
    if clash:
        raise UsageError(f'"forbidden" vertex {clash[0]} is also a terminal '
                         f'in "pairs"')
    gspec = prob.get("graph")
    t0 = time.perf_counter()
    method, route = _construct_route(args, gspec, pairs, forbidden)
    import cubelink.linker as _linker
    _linker.BRANCH_COUNTER = branches = {}
    error = None
    try:
        status, paths, refusal = route()
    except InvalidLinkage as e:
        status, paths, refusal, error = "invalid", None, None, str(e)
    except ValueError as e:
        # the input was checked above, so this is a router fault
        raise ProofStepError("construct", str(e)) from e
    finally:
        _linker.BRANCH_COUNTER = None
    ms = int((time.perf_counter() - t0) * 1000)
    report = {"command": "construct", "method": method, "status": status,
              "pairs": [list(p) for p in pairs], "forbidden": forbidden,
              "paths": paths, "refusal": refusal}
    if error is not None:
        report["error"] = error
    report.update(branches=dict(sorted(branches.items())), elapsed_ms=ms)
    _emit(report, args.format)
    return 0 if status == "linked" else 1


def _check_route_shape(d: int, pairs, star: bool) -> None:
    """Refuse, as bad input, a dimension or pair count the router does not
    take."""
    if star and (d < 5 or d % 2 == 0):
        raise UsageError("star routing needs odd dimension >= 5")
    if d < 4:
        raise UsageError("constructive routing needs dimension >= 4")
    if len(pairs) != _default_k(d):
        raise UsageError(f"dimension {d} takes {_default_k(d)} pairs, "
                         f"got {len(pairs)}")


def _construct_route(args, gspec, pairs, forbidden):
    """Check a problem file's graph and terminals and pick its router:
    (method, route), where route() gives (status, paths, refusal).  Bad
    input raises UsageError or ValueError here, before any routing."""
    if isinstance(gspec, dict):
        allowed = {"kind", "dim", "chain_length", "path"}
        extra = set(gspec) - allowed
        if extra:
            raise UsageError(f"unknown instance keys {sorted(extra)}")
        if "kind" not in gspec:
            raise UsageError('instance spec needs a "kind"')
        for key, value in gspec.items():
            want = str if key in ("kind", "path") else int
            if type(value) is not want:
                raise UsageError(f"instance key {key!r} must be "
                                 f"{want.__name__}, got {json.dumps(value)}")
        spec = InstanceSpec(**gspec)
        c = _build(spec)
        if spec.kind == "star_of_vertex":
            if forbidden:
                raise UsageError("star routing takes no forbidden set")
            centre = default_star_center(spec)
            _check_route_shape(c.dim + 1, pairs, star=True)
            if all(centre not in p for p in pairs):
                raise UsageError(f"star routing needs the centre "
                                 f"{centre} among the terminals")
            prob = LinkageProblem(c.graph(), pairs)

            def route():
                res = _link_in_star_ordered(c, centre, pairs)
                if isinstance(res, ConfigDFRefusal):
                    return "refused", None, _refusal_json(c, res)
                res.check_against(prob)
                return "linked", [list(q) for q in res.paths], None
            return "link_in_star", route
        even = (c.dim + 1) % 2 == 0
        if len(forbidden) != (1 if even else 0):
            raise UsageError("even dimension needs exactly one "
                             "forbidden vertex" if even else
                             "odd dimension takes no forbidden set")
        _check_route_shape(c.dim + 1, pairs, star=False)
        # terminals and the avoided vertex must be vertices of the graph
        LinkageProblem(c.graph(), pairs, frozenset(forbidden))

        def route():
            paths = _route(c, pairs, forbidden).paths
            return "linked", [list(q) for q in paths], None
        return ("strong_link_even" if even else "link_in_polytope"), route
    if isinstance(gspec, list):
        n = len(gspec)
        adj = [0] * n
        for v, nbrs in enumerate(gspec):
            if not isinstance(nbrs, list):
                raise UsageError(f"adjacency entry of vertex {v} is not a "
                                 f"list of neighbours")
            for u in nbrs:
                if type(u) is not int or not 0 <= u < n:
                    raise UsageError(f"neighbour {json.dumps(u)} of vertex "
                                     f"{v} is not a vertex id 0..{n - 1}")
                adj[v] |= 1 << u
        g = Graph(n, tuple(adj), (1 << n) - 1)
        p = LinkageProblem(g, pairs, frozenset(forbidden))

        def route():
            got = solve_linkage(p, args.budget)
            if got is None:
                return "unlinked", None, None
            got.check_against(p)
            return "linked", [list(q) for q in got.paths], None
        return "solve_linkage", route
    raise UsageError('problem file needs "graph": instance spec dict '
                     'or adjacency list')


def _cmd_inspect(args) -> int:
    spec = _spec_from_args(args)
    c = _build(spec)
    from .complexes import is_strongly_connected
    g = c.graph()
    fvec = list(c.f_vector())
    euler = sum((-1) ** j * n for j, n in enumerate(fvec))
    report = {"command": "inspect", "instance": asdict(spec),
              "dim": c.dim, "num_vertices": c.num_vertices,
              "f_vector": fvec, "facets": fvec[-1] if fvec else 0,
              "euler_characteristic": euler,
              "strongly_connected": is_strongly_connected(c),
              "graph_connectivity": vertex_connectivity(g)}
    if spec.kind == "star_of_vertex":
        report["star_center"] = default_star_center(spec)
    _emit(report, args.format)
    return 0


def _cmd_bench(args) -> int:
    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    spec = _spec_from_args(args)
    c = build_complex(spec)
    g = c.graph()
    d = c.dim + 1
    ids = sorted(c.vertex_ids)
    n = min(args.samples, 2000)
    marks: dict = {}

    def clock(name, fn, reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t0
        marks[name] = {"ops": reps, "elapsed_ms": int(dt * 1000),
                       "per_sec": round(reps / dt, 1) if dt else None}

    from .oracle import menger_paths
    even = d % 2 == 0
    k = d // 2 if even else _default_k(d)

    def sampled(strong, count):
        # the instance tuples, built before the clock starts
        return iter([inst for batch in _sampled_batches(
            ids, k, strong, count, args.seed) for inst in batch])
    insts = sampled(False, n)
    clock("solve_linkage",
          lambda: solve_linkage(LinkageProblem(g, next(insts)[2])), n)
    rng = random.Random(args.seed)
    triples = [(rng.choice(ids), rng.choice(ids)) for _ in range(n)]
    it2 = iter(triples)

    def one_menger():
        u, v = next(it2)
        a = sorted(bits(g.adj[u]))
        b = sorted(bits(g.adj[v]))
        kk = min(len(a), len(b), 3)
        menger_paths(g, a, b, kk)
    clock("menger_paths", one_menger, n)
    if d >= 4:
        m = min(n, 500)
        # the instance shapes of the link_construct check
        routes = sampled(even, m)

        def one_route():
            subset, forb, pr = next(routes)
            _route(c, pr, forb)
        clock("construct_linkage", one_route, m)
    report = {"command": "bench", "instance": asdict(spec),
              "seed": args.seed, "benchmarks": marks}
    _emit(report, args.format)
    return 0


# -- entry point --------------------------------------------------------------------


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", default="cube",
                   choices=("cube", "glued_chain", "star_of_vertex",
                            "from_file"))
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--chain-length", type=int, default=0)
    p.add_argument("--instance", metavar="FILE", default=None)
    p.add_argument("--format", default="json",
                   choices=("json", "csv", "text"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   metavar="NODES")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` may run many
    times in one (as the benchmark and the tests drive it)."""
    ap = argparse.ArgumentParser(
        prog="cubelink",
        description="verify and construct disjoint-path linkages in "
                    "cubical polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification campaign")
    _add_instance_flags(pv)
    pv.add_argument("--check", required=True, choices=CHECKS)
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--mode", default="exhaustive",
                    choices=("exhaustive", "sampled"))
    pv.add_argument("--samples", type=int, default=10 ** 5)
    pv.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: $CUBELINK_JOBS or 1)")
    pv.add_argument("--symmetry", action="store_true",
                    help="sweep canonical orbit representatives only "
                         "(cube instances)")
    pv.set_defaults(fn=_cmd_verify)

    pc = sub.add_parser("construct",
                        help="route one problem file, print the certificate")
    _add_instance_flags(pc)
    pc.set_defaults(fn=_cmd_construct)

    pi = sub.add_parser("inspect", help="print face counts and invariants")
    _add_instance_flags(pi)
    pi.set_defaults(fn=_cmd_inspect)

    pb = sub.add_parser("bench", help="time core operations")
    _add_instance_flags(pb)
    pb.add_argument("--samples", type=int, default=200)
    pb.set_defaults(fn=_cmd_bench)
    return ap


def _env_jobs() -> int:
    raw = os.environ.get("CUBELINK_JOBS", "1")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CUBELINK_JOBS must be an integer, "
                         f"got {raw!r}") from None


def main(argv=None) -> int:
    try:
        jobs = _env_jobs()          # checked on every call, for every command
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) is None:      # verify without --jobs
            args.jobs = jobs
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as e:
        print(f"error: search budget exceeded: {e}", file=sys.stderr)
        return 2
    except (ComplexError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ProofStepError as e:
        print(f"error: internal proof step {e.step} failed: {e.reason}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
