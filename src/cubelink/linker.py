"""Constructive routing of pairwise disjoint terminal paths.

`oracle.solve_linkage` finds linkages by search, which is exact but only
practical on small graphs.  This module builds linkages on whole complexes
directly: terminals are walked into the star of the first source along a
disjoint fan, matched up across a carefully chosen facet, and the leftover
work is delegated to oracle searches on single ridges, where the search is
both complete and fast.  Construction is deterministic; every tie is broken
toward the smallest coordinate, vertex id, or pair index.

The star router can fail for a reason that is not a bug: when some facet
packs an antipodal terminal pair whose far end is completely fenced in by
other terminals, no system of disjoint paths through the star exists.
`detect_config_dF` recognises that pattern and `link_in_star` reports it as
a `ConfigDFRefusal` value instead of a linkage.  On a full polytope the
router escapes the pattern by re-routing one terminal walk and never
refuses.

The star router's cases are written in a few shared moves of
`_StarRouter`: `detour` (a facet pair joined through its antistar hooks),
`carry` (a walk continued through one hook into the antistar), `around`
(the centre pair detoured beside the facet linkage, rerouting the pair
that swallowed its end), `hops` and `land` (walks of length at most 2 to a
parallel face, finished at the mate), `free_neighbour`, and `link_tails` /
`finish` (a linkage closed over fan tails, as `_close` does for the
polytope fans, which re-enter the star through `_close_in_star`).  Every
line of the star router and of the blocked-fan swap, apart from error
raises, runs under the sha256 digests of paths and branch counts in the
test suite, the d = 7 packed cases included; a line tracer there checks it.

Every public entry point re-validates its output before returning, and any
violated internal invariant raises `ProofStepError` with a short step id
instead of silently producing a bad linkage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .complexes import (ComplexError, FaceHandle, PolytopalComplex,
                        injection_into_antistar, link, other_facet_with_ridge,
                        star, vertex_star)
from .cube import free_pair
from .graphs import Graph, bits, mask_of, shortest_path
from .oracle import (Linkage, LinkageProblem, menger_paths,
                     short_distance_pairs, solve_linkage)

__all__ = [
    "ProofStepError", "ConfigDFContext", "ConfigDFRefusal", "StarProblem",
    "detect_config_dF", "link_in_star", "link_in_polytope",
    "strong_link_even",
]


class ProofStepError(RuntimeError):
    """A derivation step that must succeed did not.

    `step` identifies the failing step, e.g. "star.spread.far-linkage".
    These errors are never swallowed internally; seeing one means either the
    input violated a precondition or the construction has a genuine bug.
    """

    def __init__(self, step: str, message: str):
        self.step = step
        self.reason = message
        super().__init__(f"{step}: {message}")

    def __reduce__(self):
        # a campaign worker process sends the error back pickled
        return type(self), (self.step, self.reason)


def _need(cond, step: str, message: str) -> None:
    if not cond:
        raise ProofStepError(step, message)


# Optional campaign instrumentation: point this at a dict-like object and
# every routing branch bumps a counter keyed by its step id.  Reports use the
# counts to show which cases of the construction a campaign exercised.
BRANCH_COUNTER: Optional[dict] = None


def _mark(step: str) -> None:
    if BRANCH_COUNTER is not None:
        BRANCH_COUNTER[step] = BRANCH_COUNTER.get(step, 0) + 1


# -- small path algebra ------------------------------------------------------


def _join(*parts) -> list[int]:
    """Concatenate walk fragments, collapsing equal junction vertices."""
    out: list[int] = []
    for part in parts:
        for v in part:
            if not out or out[-1] != v:
                out.append(v)
    return out


def _orient(path, start: int) -> list[int]:
    if path[0] == start:
        return list(path)
    if path[-1] == start:
        return list(reversed(path))
    raise ProofStepError("orient", f"path misses endpoint {start}")


def _attempt(g: Graph, pairs, forbidden=()) -> Optional[list[list[int]]]:
    """Oracle linkage, oriented to run source -> target, or None."""
    prob = LinkageProblem(g, tuple(tuple(p) for p in pairs),
                          frozenset(forbidden))
    got = solve_linkage(prob)
    if got is None:
        return None
    return [_orient(q, s) for q, (s, _) in zip(got.paths, pairs)]


def _solve(step: str, g: Graph, pairs, forbidden=()) -> list[list[int]]:
    """Like _attempt, but a missing linkage is a ProofStepError."""
    got = _attempt(g, pairs, forbidden)
    _need(got is not None, step, "required linkage does not exist")
    return got


def _close(tail: dict, pairs, inner) -> list[list[int]]:
    """Each pair (s, t, ...) closed over its inner path: s's fan tail in,
    t's tail back out.  A terminal without a tail stands for itself."""
    return [_join(tail.get(s, (s,)), q, reversed(tail.get(t, (t,))))
            for (s, t, *_), q in zip(pairs, inner)]


def _from_side(job, mask: int):
    """Job (s, t, i) turned so that its end on the face `mask` comes first."""
    s, t, i = job
    return job if (mask >> s) & 1 else (t, s, i)


# -- problem and report types --------------------------------------------------


@dataclass(frozen=True)
class ConfigDFContext:
    """Geometry around a blocking facet.

    `facet` holds the antipodal terminal pair; `ridge` is its least fixed
    coordinate ridge around the far terminal and `opposite_ridge` the
    parallel ridge through the centre.  When the ambient complex also owns
    the second facet across `ridge`, `next_facet` and its far ridge
    `escape_ridge` are recorded, and the escape ridge is split into `bad`
    vertices (shadows of terminals across the ridge) and the remaining
    `good` vertices.  On a bare star the last four fields stay empty.
    """

    facet: FaceHandle
    ridge: FaceHandle
    opposite_ridge: FaceHandle
    next_facet: Optional[FaceHandle] = None
    escape_ridge: Optional[FaceHandle] = None
    good: tuple[int, ...] = ()
    bad: tuple[int, ...] = ()


@dataclass(frozen=True)
class ConfigDFRefusal:
    """Returned by link_in_star when no linkage can exist: some facet traps
    the centre pair.  Carries the witness facet and its context."""

    facet: FaceHandle
    context: ConfigDFContext


@dataclass(frozen=True)
class StarProblem:
    """A pairing to be routed inside a vertex star.

    `pairs[0][0]` must be the star centre; the star must consist exactly of
    the facets around that centre.
    """

    star: PolytopalComplex
    center: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple((int(s), int(t)) for s, t in self.pairs))
        if not self.pairs or self.pairs[0][0] != self.center:
            raise ValueError("pairs[0][0] must be the star centre")
        terms = [v for p in self.pairs for v in p]
        if len(set(terms)) != len(terms):
            raise ValueError("terminals must be distinct")
        vm = self.star.vertex_mask
        for v in terms:
            if not (vm >> v) & 1:
                raise ValueError(f"terminal {v} outside the star")
        for f in self.star.facets():
            if self.center not in self.star.face_vertices(f):
                raise ValueError("every facet must contain the centre")

    @property
    def terminals(self) -> tuple[int, ...]:
        return tuple(sorted(v for p in self.pairs for v in p))


# -- blocking pattern detection ------------------------------------------------


def detect_config_dF(c: PolytopalComplex, x, y, s1: int):
    """Witness facet and context of the blocking pattern, or None.

    A facet qualifies when it carries at least d+1 marked vertices, the mate
    of s1 sits antipodal to s1 inside it, and every facet neighbour of that
    mate is marked.  At most one facet can qualify, and the scan walks
    facets in ascending order.  Only meaningful for odd d; even d raises.
    """
    d = c.dim + 1
    if d % 2 == 0:
        raise ValueError("blocking detection is defined for odd dimension")
    xs = set(x)
    t1 = None
    for s, t in y:
        if s == s1:
            t1 = t
            break
        if t == s1:
            t1 = s
            break
    if t1 is None:
        raise ValueError("s1 must appear in the pairing")
    if len(xs) < d + 1:
        return None
    g = c.graph()
    for f in c.facets():
        fv = c.face_vertices(f)
        fs = set(fv)
        if s1 not in fs or t1 not in fs:
            continue
        if len(xs & fs) < d + 1:
            continue
        ch = c.chart(f)
        if ch.opposite_vertex(s1) != t1:
            continue
        fmask = mask_of(fv)
        if any(w not in xs for w in bits(g.adj[t1] & fmask)):
            continue
        return f, _blocking_context(c, f, ch, xs, t1)
    return None


def _blocking_context(c, facet, ch, xs, t1) -> ConfigDFContext:
    tb = ch.bits_of(t1)
    side = tb & 1
    ridge = ch.ridge(0, side)
    opp = ch.ridge(0, 1 - side)
    try:
        nxt = other_facet_with_ridge(c, ridge, facet)
    except ComplexError:
        return ConfigDFContext(facet, ridge, opp)
    chn = c.chart(nxt)
    rc, rs = chn.ridge_coordinate(ridge)
    esc = chn.ridge(rc, 1 - rs)
    bad = sorted(chn.project(v, rc, 1 - rs)
                 for v in c.face_vertices(ridge) if v in xs)
    good = sorted(set(c.face_vertices(esc)) - set(bad))
    return ConfigDFContext(facet, ridge, opp, nxt, esc, tuple(good),
                           tuple(bad))


# -- the star router -----------------------------------------------------------


class _StarRouter:
    """Workspace for one run.  Splits on how many terminals the heaviest
    facet around the far end of the centre pair holds."""

    def __init__(self, p: StarProblem):
        self.c = p.star
        self.s1 = p.center
        self.d = self.c.dim + 1
        self.k = (self.d + 1) // 2
        self.pairs = list(p.pairs)
        self.t1 = self.pairs[0][1]
        self.x = set(p.terminals)
        self.sg = self.c.graph()
        best = None
        for f in self.c.facets():
            fv = self.c.face_vertices(f)
            if self.t1 not in fv:
                continue
            score = len(self.x.intersection(fv))
            if best is None or score > best[0]:
                best = (score, f)
        # t1 lies in some facet, so best is set
        self.score, self.f1 = best
        self.ch1 = self.c.chart(self.f1)
        self.f1mask = mask_of(self.c.face_vertices(self.f1))
        self.a1mask = self.c.vertex_mask & ~self.f1mask
        self.inj = injection_into_antistar(self.c, self.f1, self.s1)

    # ---- shared moves

    def jobs(self) -> list[tuple[int, int, int]]:
        return [(s, t, i) for i, (s, t) in enumerate(self.pairs)]

    def fmask(self, h: FaceHandle) -> int:
        return mask_of(self.c.face_vertices(h))

    def region_path(self, step, region_mask, u, v, avoid=()) -> list[int]:
        allowed = region_mask & ~mask_of(avoid)
        path = shortest_path(self.sg, u, 1 << v, allowed)
        _need(path is not None, step, f"no path {u}->{v} in region")
        return path

    def solve_in(self, step, region_mask, prs, forbidden=()):
        """Oracle linkage of (s, t) pairs or (s, t, i) jobs in a region."""
        return _solve(step, self.sg.restrict(region_mask),
                      [(s, t) for s, t, *_ in prs], forbidden)

    def finish(self, out, jobs, inner, tail=None) -> list[list[int]]:
        """out[i] for each job (s, t, i): its inner path closed over the
        tails of s and t."""
        for (_, _, i), q in zip(jobs, _close(tail or {}, jobs, inner)):
            out[i] = q
        return out

    def link_tails(self, out, step, region_mask, tail, forbidden=()):
        """Link the tail ends of every pair but the centre's inside the
        region and close the pairs over their tails."""
        rest = self.jobs()[1:]
        ends = [(tail[s][-1], tail[t][-1]) for s, t, _ in rest]
        linked = self.solve_in(step, region_mask, ends, forbidden)
        return self.finish(out, rest, linked, tail)

    def hook(self, v: int, step: str) -> int:
        """Antistar neighbour assigned to facet vertex v."""
        img = self.inj.get(v)
        _need(img is not None, step, f"no antistar hook at {v}")
        return img

    def carry(self, hook_step, carry_step, walk, to) -> list[int]:
        """`walk` continued from its last (heavy facet) vertex through that
        vertex's hook and across the antistar to `to`."""
        hop = self.hook(walk[-1], hook_step)
        return walk + self.region_path(carry_step, self.a1mask, hop, to)

    def detour(self, hook_step, carry_step, u, v) -> list[int]:
        """Facet vertices u and v joined through their hooks across the
        antistar."""
        return self.carry(hook_step, carry_step, [u],
                          self.hook(v, hook_step)) + [v]

    def around(self, end, jobs, linked, detour_steps, reroute_steps):
        """The centre path from s1 to facet vertex `end` through the
        antistar, beside the facet paths `linked` of `jobs`.  If one of
        those swallowed `end`, that pair is rerouted through the antistar
        along with the centre pair (its entry of `linked` is replaced);
        reroute_steps[j] names the hook and linkage steps for job j."""
        j = next((j for j, q in enumerate(linked) if end in q), None)
        if j is None:
            return self.detour(*detour_steps, self.s1, end)
        hook_step, step = reroute_steps[j]
        s, t, _ = jobs[j]
        ends = [self.hook(v, hook_step) for v in (self.s1, end, s, t)]
        two = self.solve_in(step, self.a1mask, [ends[:2], ends[2:]])
        linked[j] = [s] + two[1] + [t]
        return [self.s1] + two[0] + [end]

    def hops(self, src, face_mask, push, banned):
        """Walks of length <= 2 off the face `face_mask`, shortest first:
        src pushed across, or one step along the face and then pushed;
        no vertex after src in `banned`."""
        p = push(src)
        if p not in banned:
            yield [src, p]
        for u in sorted(bits(self.sg.adj[src] & face_mask)):
            if u not in banned and push(u) not in banned:
                yield [src, u, push(u)]

    def land(self, step, walk, t, region_mask, avoid) -> list[int]:
        """`walk` finished at t inside the region (if not already there)."""
        return _join(walk, self.region_path(step, region_mask, walk[-1], t,
                                            avoid=avoid))

    def free_neighbour(self, step, why, v, region_mask) -> int:
        """Least unmarked neighbour of v in the region."""
        w = next((w for w in sorted(bits(self.sg.adj[v] & region_mask))
                  if w not in self.x), None)
        _need(w is not None, step, why)
        return w

    def partner(self, v):
        """Index of the pair holding terminal v, and v's mate."""
        i = next(i for i, pr in enumerate(self.pairs) if v in pr)
        s, t = self.pairs[i]
        return i, (t if s == v else s)

    def run(self) -> list[list[int]]:
        if self.score == self.d + 1:
            return self.route_packed()
        if self.score == self.d:
            return self.route_one_out()
        if self.score == 2:
            return self.route_pair_only()
        return self.route_spread()

    # ---- exactly one terminal outside the heavy facet

    def route_one_out(self) -> list[list[int]]:
        _mark("star.one_out")
        out: list = [None] * self.k
        to = next(v for v in sorted(self.x) if (self.a1mask >> v) & 1)
        oi, so = self.partner(to)
        rest = [j for j in self.jobs()[1:] if j[2] != oi]
        if so != self.ch1.opposite_vertex(self.s1):
            # near mate: link everyone else inside the facet, walk the
            # stray terminal home through the antistar
            near = self.jobs()[:1] + rest
            linked = self.solve_in("star.one-out.facet", self.f1mask, near,
                                   forbidden={so})
            self.finish(out, near, linked)
            out[oi] = self.carry("star.one-out.hook", "star.one-out.carry",
                                 [so], to)
            return out
        return self._one_out_antipodal(out, oi, so, to, rest)

    def _one_out_antipodal(self, out, oi, so, to, rest) -> list[list[int]]:
        _mark("star.one_out.antipodal")
        # the stray terminal's mate is the centre's antipode; split the
        # facet along a coordinate no terminal edge crosses
        s1, t1, ch = self.s1, self.t1, self.ch1
        zone = [ch.bits_of(v) for v in self.x
                if (self.f1mask >> v) & 1 and v != so]
        fp = free_pair(ch.m, zone)
        _need(fp is not None, "star.one-out.split", "no free coordinate")
        cc = fp.coord
        side = (ch.bits_of(so) >> cc) & 1
        rmask = self.fmask(ch.ridge(cc, side))
        omask = self.fmask(ch.ridge(cc, 1 - side))
        near = sorted(bits(self.sg.adj[so] & rmask))
        stray = [w for w in near if w not in self.x]
        if not stray:
            # every ridge neighbour of the mate is marked, which forces all
            # small pairs onto that ridge and the centre pair apart
            _need((rmask >> t1) & 1, "star.one-out.packed-ridge",
                  "far terminal expected beside the mate")
            _need(all((rmask >> v) & 1 for s, t, _ in rest
                      for v in (s, t)),
                  "star.one-out.packed-side",
                  "small pairs expected beside the mate")
            if rest:
                linked = self.solve_in("star.one-out.packed", rmask, rest,
                                       forbidden={so, t1})
                self.finish(out, rest, linked)
            step_over = ch.project(so, cc, 1 - side)
            _need(step_over not in self.x, "star.one-out.step",
                  "split coordinate is not free")
            out[oi] = self.carry("star.one-out.hook2", "star.one-out.carry2",
                                 [so, step_over], to)
            back = ch.project(t1, cc, 1 - side)
            out[0] = _join(self.region_path("star.one-out.centre", omask,
                                            s1, back, avoid={step_over}),
                           [t1])
            return out
        out[oi] = self.carry("star.one-out.hook3", "star.one-out.carry3",
                             [so, stray[0]], to)
        shadow = {v: ch.project(v, cc, 1 - side) for v in self.x
                  if v not in (so, to)}
        _need(len(set(shadow.values())) == self.d - 1,
              "star.one-out.collide", "terminal shadows collide")
        near = self.jobs()[:1] + rest
        got = _attempt(self.sg.restrict(omask),
                       [(shadow[s], shadow[t]) for s, t, _ in near])
        if got is not None:
            return self.finish(out, near, got)
        _need(self.d == 5, "star.one-out.far-linkage",
              "ridge linkage must exist above dimension 5")
        # 3-cube leftovers can sit in a blocking cycle; route the small
        # pair on the near ridge instead and keep the centre pair far
        (s3, t3, i3), = rest
        p3s, p3t = ch.project(s3, cc, side), ch.project(t3, cc, side)
        good = [w for w in stray if w not in (p3s, p3t)]
        _need(good, "star.one-out.swap-door",
              "no clean door beside the blocked mate")
        sbar = good[0]
        out[oi] = self.carry("star.one-out.hook4", "star.one-out.carry4",
                             [so, sbar], to)
        block = {so, sbar} | ({t1} if (rmask >> t1) & 1 else set())
        q3 = self.region_path("star.one-out.swap-near", rmask, p3s, p3t,
                              avoid=block)
        out[i3] = _join([s3], q3, [t3])
        back = ch.project(t1, cc, 1 - side)
        q1 = self.region_path("star.one-out.swap-far", omask, s1, back,
                              avoid={shadow[s3], shadow[t3]})
        out[0] = _join(q1, [t1])
        return out

    # ---- between 3 and d-1 terminals inside the heavy facet

    def route_spread(self) -> list[list[int]]:
        _mark("star.spread")
        s1, t1, ch = self.s1, self.t1, self.ch1
        zone = [ch.bits_of(v) for v in self.x if (self.f1mask >> v) & 1]
        fp = free_pair(ch.m, zone)
        _need(fp is not None, "star.spread.split", "no free coordinate")
        cc = fp.coord
        side = (ch.bits_of(s1) >> cc) & 1
        rhandle = ch.ridge(cc, side)
        rmask = self.fmask(rhandle)
        omask = self.fmask(ch.ridge(cc, 1 - side))
        if (rmask >> t1) & 1:
            return self._spread_same_side(cc, side, rmask, omask)
        return self._spread_far_side(cc, side, rhandle, rmask, omask)

    def _spread_same_side(self, cc, side, rmask, omask) -> list[list[int]]:
        _mark("star.spread.same_side")
        # centre pair shares the near ridge; everyone else crosses to the
        # far ridge, terminals in the antistar entering through fresh doors
        out: list = [None] * self.k
        s1, t1, ch = self.s1, self.t1, self.ch1
        out[0] = self.region_path("star.spread.own", rmask, s1, t1,
                                  avoid=self.x - {s1, t1})
        s1o = ch.opposite_vertex(s1)
        far_marks = set()
        for v in self.x - {s1, t1}:
            if (self.f1mask >> v) & 1:
                far_marks.add(ch.project(v, cc, 1 - side))
        outside = sorted(v for v in self.x if (self.a1mask >> v) & 1)
        avail = [v for v in sorted(bits(omask))
                 if v not in far_marks and v != s1o]
        _need(len(avail) >= len(outside), "star.spread.doors",
              "not enough free doors on the far ridge")
        doors = avail[:len(outside)]
        if self.d == 5 and outside:
            flip = ((1 << ch.m) - 1) ^ (1 << cc)
            spreadv = sorted(far_marks)
            wide = any(bin(ch.bits_of(u) ^ ch.bits_of(v)).count("1") == 3
                       for u in spreadv for v in spreadv if u < v)
            if not wide and spreadv:
                # force one door antipodal to a mark so the far ridge
                # linkage cannot lock into a cycle
                anti = ch.vid_of(ch.bits_of(spreadv[0]) ^ flip)
                _need(anti in avail, "star.spread.anti",
                      "antipodal door unavailable")
                doors = [anti] + [v for v in avail if v != anti]
                doors = doors[:len(outside)]
        tail: dict[int, list[int]] = {}
        if outside:
            keys = [self.hook(v, "star.spread.hook") for v in doors]
            door_of = dict(zip(keys, doors))
            got = menger_paths(self.sg.restrict(self.a1mask), outside,
                               sorted(set(keys)), len(outside))
            _need(got is not None, "star.spread.carry",
                  "no disjoint walks to the doors")
            tail.update({q[0]: list(q) + [door_of[q[-1]]] for q in got})
        for v in self.x - {s1, t1}:
            if v in tail:
                continue
            if (omask >> v) & 1:
                tail[v] = [v]
            elif (rmask >> v) & 1:
                p = ch.project(v, cc, 1 - side)
                _need(p not in self.x, "star.spread.hop",
                      "split coordinate is not free")
                tail[v] = [v, p]
        marks = [tail[v][-1] for v in sorted(tail)]
        _need(len(set(marks)) == self.d - 1, "star.spread.marks",
              "far ridge entries collide")
        return self.link_tails(out, "star.spread.far-linkage", omask, tail)

    def _spread_far_side(self, cc, side, rhandle, rmask, omask):
        _mark("star.spread.far_side")
        # centre pair splits across the ridge pair; bring everyone else to
        # the neighbour facet across the near ridge
        out: list = [None] * self.k
        s1, t1, ch = self.s1, self.t1, self.ch1
        p1 = ch.project(s1, cc, 1 - side)
        _need(p1 not in self.x, "star.spread.step",
              "split coordinate is not free")
        far = self.region_path("star.spread.far-own", omask, p1, t1,
                               avoid=self.x - {t1})
        out[0] = _join([s1], far)
        try:
            nb = other_facet_with_ridge(self.c, rhandle, self.f1)
        except ComplexError:
            raise ProofStepError("star.spread.next-facet",
                                 "ridge through the centre lacks a partner")
        chn = self.c.chart(nb)
        nc, ns = chn.ridge_coordinate(rhandle)
        landing = self.fmask(chn.ridge(nc, 1 - ns))
        outside = sorted(v for v in self.x if (self.a1mask >> v) & 1)
        tail: dict[int, list[int]] = {}
        if outside:
            got = menger_paths(self.sg.restrict(self.a1mask), outside,
                               sorted(bits(landing)), len(outside))
            _need(got is not None, "star.spread.reach",
                  "no disjoint walks to the landing ridge")
            tail.update({q[0]: list(q) for q in got})
        for v in self.x - {s1, t1}:
            if v in tail:
                continue
            if (rmask >> v) & 1:
                tail[v] = [v]
            else:
                p = ch.project(v, cc, side)
                _need(p not in self.x, "star.spread.hop2",
                      "split coordinate is not free")
                tail[v] = [v, p]
        marks = [tail[v][-1] for v in sorted(tail)]
        _need(len(set(marks)) == self.d - 1 and s1 not in marks,
              "star.spread.side-marks", "neighbour facet entries collide")
        return self.link_tails(out, "star.spread.side-linkage",
                               self.fmask(nb), tail, forbidden={s1})

    # ---- only the centre pair inside the heavy facet

    def route_pair_only(self) -> list[list[int]]:
        _mark("star.pair_only")
        out: list = [None] * self.k
        s1, t1 = self.s1, self.t1
        s2 = self.pairs[1][0]
        s12 = star(self.c, self.c.vertex_handle(s2))
        g12mask = s12.vertex_mask & ~self.f1mask
        residents = sorted(v for v in self.x - {s2}
                           if (g12mask >> v) & 1)
        srcs = sorted(v for v in self.x - {s1, t1, s2}
                      if not (g12mask >> v) & 1)
        tail: dict[int, list[int]] = {s2: [s2]}
        for v in residents:
            tail[v] = [v]
        if srcs:
            keep = self.a1mask & ~mask_of(residents)
            sinks = sorted(bits(g12mask & keep & ~(1 << s2)))
            _need(len(sinks) >= len(srcs), "star.pair-only.room",
                  "second star too crowded to receive the walks")
            got = menger_paths(self.sg.restrict(keep), srcs, sinks,
                               len(srcs))
            _need(got is not None, "star.pair-only.approach",
                  "no disjoint walks to the second star")
            tail.update({q[0]: list(q) for q in got})
        rep = {v: tail[v][-1] for v in tail}
        _need(len(set(rep.values())) == self.d - 1,
              "star.pair-only.marks", "second star entries collide")
        t2rep = rep[self.pairs[1][1]]
        f12 = next((f for f in s12.facets()
                    if t2rep in s12.face_vertices(f)), None)
        _need(f12 is not None, "star.pair-only.second-facet",
              "representative fell outside the second star")
        f12v = set(s12.face_vertices(f12))
        f12mask = mask_of(f12v)
        _need(t1 not in f12v, "star.pair-only.heavy",
              "facet choice must keep the far terminal out")
        # carve the heavy facet so the centre path dodges the shared face
        ch = self.ch1
        common = sorted(set(self.c.face_vertices(self.f1)) & f12v)
        base = ch.bits_of(common[0])
        fixed = (1 << ch.m) - 1
        for v in common[1:]:
            fixed &= ~(base ^ ch.bits_of(v))
        t1b = ch.bits_of(t1)
        cr = next((j for j in range(ch.m)
                   if (fixed >> j) & 1 and ((base ^ t1b) >> j) & 1), None)
        _need(cr is not None, "star.pair-only.split-ridge",
              "shared face should avoid the far terminal")
        side = (base >> cr) & 1
        omask = self.fmask(ch.ridge(cr, 1 - side))
        out[0] = _join([s1],
                       self.region_path("star.pair-only.own", omask,
                                        ch.project(s1, cr, 1 - side), t1))
        if len(s12.facets()) == 1:
            return self.link_tails(out, "star.pair-only.single", f12mask,
                                   tail, forbidden={s1})
        return self._pair_only_multi(out, s2, s12, f12, f12mask, tail, rep)

    def _pair_only_multi(self, out, s2, s12, f12, f12mask, tail, rep):
        _mark("star.pair_only.multi")
        # walk deep representatives through the rest of the second star and
        # drop them onto the target facet across a shared small face
        s1 = self.s1
        a12mask = s12.vertex_mask & ~self.f1mask & ~f12mask
        ch12 = s12.chart(f12)
        sb, s2b = ch12.bits_of(s1), ch12.bits_of(s2)
        cu = next((j for j in range(ch12.m)
                   if not (((sb ^ s2b) >> j) & 1)), None)
        _need(cu is not None, "star.pair-only.corner",
              "centres sit antipodal in a facet that should share them")
        hu = ch12.ridge(cu, (sb >> cu) & 1)
        uverts = set(s12.face_vertices(hu))
        try:
            j12 = other_facet_with_ridge(s12, hu, f12)
        except ComplexError:
            raise ProofStepError("star.pair-only.partner",
                                 "shared small face lacks a second facet")
        chj = s12.chart(j12)
        cj, sj = chj.ridge_coordinate(hu)
        huj = chj.ridge(cj, 1 - sj)
        reps = set(rep.values())
        deep = sorted(v for v in reps if (a12mask >> v) & 1)
        hop: dict[int, list[int]] = {v: [v] for v in reps
                                     if (f12mask >> v) & 1}
        if deep:
            banned = {chj.project(v, cj, 1 - sj)
                      for v in (reps | {s1}) if v in uverts}
            usable = [v for v in sorted(s12.face_vertices(huj))
                      if not (self.f1mask >> v) & 1 and v not in banned
                      and not (self.f1mask >> chj.project(v, cj, sj)) & 1]
            _need(len(usable) >= len(deep), "star.pair-only.landing",
                  "not enough landing vertices")
            marks = usable[:len(deep)]
            got = menger_paths(self.sg.restrict(a12mask), deep, marks,
                               len(deep))
            _need(got is not None, "star.pair-only.deep",
                  "no disjoint walks through the second antistar")
            for q in got:
                img = chj.project(q[-1], cj, sj)
                _need(not (self.f1mask >> img) & 1,
                      "star.pair-only.image", "landing image fell back")
                hop[q[0]] = list(q) + [img]
        full = {v: _join(tail[v], hop[rep[v]]) for v in tail}
        return self.link_tails(out, "star.pair-only.final", f12mask, full,
                               forbidden={s1})

    # ---- every terminal inside the heavy facet

    def route_packed(self) -> list[list[int]]:
        _mark("star.packed")
        s1o = self.ch1.opposite_vertex(self.s1)
        if self.d == 5:
            if s1o == self.t1:
                return self._packed_low_antipode()
            return self._packed_low()
        if s1o == self.t1:
            return self._packed_high_antipode()
        if s1o in self.x:
            return self._packed_high_mate(s1o)
        return self._packed_high_free()

    def _packed_high_free(self) -> list[list[int]]:
        _mark("star.packed.high.free")
        # centre antipode unmarked, d >= 7: everyone else links inside the
        # facet, the centre pair detours through the antistar; if the far
        # terminal got swallowed, reroute that one pair outside too
        out: list = [None] * self.k
        rest = self.jobs()[1:]
        linked = self.solve_in("star.packed.facet", self.f1mask, rest,
                               forbidden={self.s1})
        out[0] = self.around(self.t1, rest, linked,
                             ("star.packed.hooks", "star.packed.carry"),
                             [("star.packed.reroute",) * 2] * len(rest))
        return self.finish(out, rest, linked)

    def _packed_high_mate(self, s1o: int) -> list[list[int]]:
        _mark("star.packed.high.mate")
        # centre antipode is some other pair's terminal, d >= 7
        out: list = [None] * self.k
        s1, t1 = self.s1, self.t1
        oi, to = self.partner(s1o)
        rest = [j for j in self.jobs()[1:] if j[2] != oi]
        ring = self.f1mask & ~mask_of([s1, s1o])
        if self.sg.has_edge(s1o, to):
            linked = self.solve_in("star.packed.ring", ring, rest,
                                   forbidden={t1, to})
            out[oi] = [s1o, to]
            out[0] = self.detour("star.packed.hooks2", "star.packed.carry2",
                                 s1, t1)
            return self.finish(out, rest, linked)
        door = self.free_neighbour(
            "star.packed.door",
            "mate of the antipode has no free facet neighbour", s1o,
            self.f1mask)
        jobs = [(door, to, oi)] + rest
        linked = self.solve_in("star.packed.ring2", ring, jobs)
        out[0] = self.around(
            t1, jobs, linked, ("star.packed.hooks3", "star.packed.carry3"),
            [("star.packed.reroute2",) * 2]
            + [("star.packed.reroute3",) * 2] * len(rest))
        return self.finish(out, jobs, linked, {door: [s1o, door]})

    def _packed_high_antipode(self) -> list[list[int]]:
        _mark("star.packed.high.antipode")
        # the centre pair itself is antipodal, d >= 7
        out: list = [None] * self.k
        s1, t1 = self.s1, self.t1
        rest = self.jobs()[1:]
        door = self.free_neighbour("star.packed.escape",
                                   "blocked pattern slipped past detection",
                                   t1, self.f1mask)
        ring = self.f1mask & ~mask_of([s1, t1])
        linked = self.solve_in("star.packed.ring3", ring, rest)
        out[0] = self.around(door, rest, linked,
                             ("star.packed.hooks4", "star.packed.carry4"),
                             [("star.packed.hooks5", "star.packed.reroute4")]
                             * len(rest)) + [t1]
        return self.finish(out, rest, linked)

    # ---- the packed cases in dimension 5

    def _low_frame(self, anchor: int):
        """Split the heavy 4-facet into the 3-face around s1 and `anchor`,
        its parallel mate, and the neighbour facet over the near face."""
        ch = self.ch1
        diff = ch.bits_of(self.s1) ^ ch.bits_of(anchor)
        cr = next(j for j in range(ch.m) if not ((diff >> j) & 1))
        side = (ch.bits_of(self.s1) >> cr) & 1
        rhandle = ch.ridge(cr, side)
        rmask = self.fmask(rhandle)
        fmask = self.fmask(ch.ridge(cr, 1 - side))
        try:
            nb = other_facet_with_ridge(self.c, rhandle, self.f1)
        except ComplexError:
            raise ProofStepError("star.packed.low.partner",
                                 "near face lacks a second facet")
        nbmask = self.fmask(nb)
        chn = self.c.chart(nb)
        nc, ns = chn.ridge_coordinate(rhandle)
        jmask = self.fmask(chn.ridge(nc, 1 - ns))

        def deep(v):  # project a near-face vertex across the partner facet
            return chn.project(v, nc, 1 - ns)

        def over(v):  # push a near-face vertex to the far face
            return ch.project(v, cr, 1 - side) if (rmask >> v) & 1 else v

        def down(v):  # push a far-face vertex to the near face
            return v if (rmask >> v) & 1 else ch.project(v, cr, side)

        return rmask, fmask, jmask, nbmask, deep, over, down

    def _packed_low(self) -> list[list[int]]:
        # d = 5, centre antipode is not the far terminal
        out: list = [None] * self.k
        rmask, fmask, jmask, nbmask, deep, over, down = \
            self._low_frame(self.t1)
        rset = set(bits(rmask))
        a, b = self.jobs()[1], self.jobs()[2]
        if all(v in rset for v in self.x):
            return self._low_all_near(out, rmask, fmask, jmask, deep, over)
        whole_r = [j for j in (a, b) if j[0] in rset and j[1] in rset]
        if whole_r:
            other = b if whole_r[0] is a else a
            return self._low_pair_near(out, whole_r[0], other,
                                       rmask, fmask, jmask, deep, over)
        fset = set(bits(fmask))
        whole_f = [j for j in (a, b) if j[0] in fset and j[1] in fset]
        if whole_f:
            other = b if whole_f[0] is a else a
            return self._low_pair_far(out, whole_f[0], other, rmask, fmask,
                                      nbmask, down)
        return self._low_split(out, a, b, rmask, fmask, over)

    def _low_all_near(self, out, rmask, fmask, jmask, deep, over):
        _mark("star.packed.low.all_near")
        # all six terminals on one 3-face: push two pairs through the
        # neighbour facet, the leftover pair across the heavy facet
        a, b = self.jobs()[1], self.jobs()[2]
        pair1 = (self.s1, self.t1, 0)
        for two, lone in (((pair1, a), b), ((pair1, b), a),
                          ((a, b), pair1)):
            prs = [(deep(s), deep(t)) for s, t, _ in two]
            got = _attempt(self.sg.restrict(jmask), prs)
            if got is None:
                continue
            for (s, t, i), q in zip(two, got):
                out[i] = _join([s, deep(s)], q, [deep(t), t])
            ls, lt, li = lone
            q = self.region_path("star.packed.low.lone", fmask,
                                 over(ls), over(lt))
            out[li] = _join([ls, over(ls)], q, [over(lt), lt])
            return out
        raise ProofStepError("star.packed.low.triple",
                             "no two pairs fit through the partner facet")

    def _low_pair_near(self, out, pr, other, rmask, fmask, jmask, deep,
                       over):
        _mark("star.packed.low.pair_near")
        # some small pair shares the near face with the centre pair
        s1, t1 = self.s1, self.t1
        xr = sorted(self.x & set(bits(rmask)))
        rg = self.sg.restrict(rmask)
        win = short_distance_pairs(rg, xr, [(s1, t1), (pr[0], pr[1])])
        _need(win, "star.packed.low.short",
              "one near pair must admit a clean path")
        if 1 in win:
            keeper, mover = pr, (s1, t1, 0)
        else:
            keeper, mover = (s1, t1, 0), pr
        ks, kt, ki = keeper
        out[ki] = self.region_path("star.packed.low.keep", rmask, ks, kt,
                                   avoid=self.x - {ks, kt})
        ms, mt, mi = mover
        q = self.region_path("star.packed.low.move", jmask, deep(ms),
                             deep(mt))
        out[mi] = _join([ms, deep(ms)], q, [deep(mt), mt])
        os_, ot, oi = other
        q = self.region_path("star.packed.low.rest", fmask, over(os_),
                             over(ot), avoid=self.x - {os_, ot})
        out[oi] = _join([os_, over(os_)], q, [over(ot), ot])
        return out

    def _low_pair_far(self, out, pr, other, rmask, fmask, nbmask, down):
        _mark("star.packed.low.pair_far")
        # some small pair sits wholly on the far face (centre pair is on
        # the near face; the leftover pair is split or also far)
        s1, t1, ch = self.s1, self.t1, self.ch1
        s1o = ch.opposite_vertex(s1)
        ps, pt, pi = pr
        os_, ot, oi = other
        fset = set(bits(fmask))
        if os_ in fset and ot in fset:
            if s1o in (os_, ot):
                # keep the antistar detour away from the antipode
                ps, pt, pi, os_, ot, oi = os_, ot, oi, ps, pt, pi
            out[0] = self.region_path("star.packed.low.centre0", rmask,
                                      s1, t1)
            out[pi] = self.region_path("star.packed.low.far0", fmask, ps,
                                       pt, avoid=self.x - {ps, pt})
            out[oi] = self.detour("star.packed.low.hook0",
                                  "star.packed.low.carry0", os_, ot)
            return out
        if (rmask >> ot) & 1:
            os_, ot = ot, os_
        # os_ on the near face, ot on the far face; walk ot home first
        hop = next(self.hops(ot, fmask, down, self.x - {ot, os_}), None)
        if hop is not None and hop[-1] == os_:
            out[oi] = list(reversed(hop))
            out[0] = self.region_path("star.packed.low.partner-own",
                                      nbmask, s1, t1, avoid={os_})
            out[pi] = self.region_path("star.packed.low.far1", fmask, ps,
                                       pt,
                                       avoid=(self.x | set(hop)) -
                                       {ps, pt})
            return out
        if hop is not None:
            got = self.solve_in("star.packed.low.partner-pair", nbmask,
                                [(s1, t1), (os_, hop[-1])])
            out[0] = got[0]
            out[oi] = _join(got[1], list(reversed(hop)))
            out[pi] = self.region_path("star.packed.low.far2", fmask, ps,
                                       pt,
                                       avoid=(self.x | set(hop)) -
                                       {ps, pt})
            return out
        _need(self.sg.has_edge(s1, t1), "star.packed.low.adjacent",
              "centre pair expected adjacent when no hop exists")
        out[0] = [s1, t1]
        out[pi] = self.region_path("star.packed.low.far3", fmask, ps, pt,
                                   avoid=self.x - {ps, pt})
        _need(ot != s1o, "star.packed.low.antipode",
              "stranded terminal at the antipode")
        out[oi] = self.detour("star.packed.low.hook1",
                              "star.packed.low.carry1", os_, ot)
        return out

    def _low_split(self, out, a, b, rmask, fmask, over):
        _mark("star.packed.low.split")
        # both small pairs straddle the two 3-faces
        s1, t1 = self.s1, self.t1
        s1o = self.ch1.opposite_vertex(s1)
        a, b = _from_side(a, rmask), _from_side(b, rmask)
        # the detouring pair may not end at the antipode, which has no hook
        tries = [(h, f) for h, f in ((b, a), (a, b)) if f[1] != s1o]
        got = self._straddle(out, tries, t1, rmask, fmask, over)
        if got is not None:
            return got
        # No hop.  A near end hs without one is pushed onto ft and has
        # exactly s1, t1 and fs for near-face neighbours, so two such ends
        # would be adjacent and both adjacent to s1: a triangle in a 3-cube.
        # So one try was dropped, and the pair left to hop ends at the
        # antipode.  Send it through the antistar instead, stepping off the
        # antipode.
        (hs, ht, hi), (fs, ft, fi) = tries[0]
        side = self.free_neighbour("star.packed.low.sidestep",
                                   "no free vertex beside the antipode", ht,
                                   fmask)
        out[hi] = self.detour("star.packed.low.hook3",
                              "star.packed.low.carry3", hs, side) + [ht]
        walk = next(self.hops(fs, rmask, over, {side, ht, s1, t1, hs}),
                    None)
        _need(walk is not None, "star.packed.low.step2",
              "second pair cannot reach the far face")
        out[fi] = self.land("star.packed.low.land2", walk, ft, fmask,
                            avoid={side, ht})
        out[0] = self.region_path("star.packed.low.centre2", rmask, s1,
                                  t1, avoid={hs, *walk})
        return out

    def _straddle(self, out, tries, end, rmask, fmask, over):
        """Route the two small pairs that straddle the near and far
        3-faces.  `tries` holds (h, f) pairs of jobs, each turned near end
        first.  For the first whose near end hs can hop to the far face, h
        lands at ht, f detours through the antistar, and the centre path
        runs on the near face from s1 to `end` and on to t1.  None if no hs
        can hop.

        The centre path always exists.  The near face is a 3-cube, and at
        most three of its vertices are removed: fs, hs and the hop step,
        hs and the step being adjacent.  A 3-cube is 3-connected, and its
        only 3-vertex cuts are vertex neighbourhoods, which hold no edge.
        """
        for (hs, ht, hi), (fs, ft, fi) in tries:
            hop = next(self.hops(hs, rmask, over,
                                 (self.x - {hs, ht}) | {end}), None)
            if hop is None:
                continue
            centre = self.region_path("star.packed.low.centre", rmask,
                                      self.s1, end, avoid={fs, *hop})
            out[hi] = self.land("star.packed.low.land", hop, ht, fmask,
                                avoid=self.x - {hs, ht})
            out[fi] = self.detour("star.packed.low.hook2",
                                  "star.packed.low.carry2", fs, ft)
            out[0] = _join(centre, [self.t1])
            return out
        return None

    def _packed_low_antipode(self) -> list[list[int]]:
        _mark("star.packed.low.antipode")
        # d = 5 and the centre pair is antipodal in the heavy facet
        out: list = [None] * self.k
        s1, t1 = self.s1, self.t1
        door = self.free_neighbour("star.packed.low.escape",
                                   "blocked pattern slipped past detection",
                                   t1, self.f1mask)
        rmask, fmask, jmask, nbmask, deep, over, down = \
            self._low_frame(door)
        rset, fset = set(bits(rmask)), set(bits(fmask))
        a, b = self.jobs()[1], self.jobs()[2]
        whole_r = [j for j in (a, b) if j[0] in rset and j[1] in rset]
        if whole_r:
            pr = whole_r[0]
            other = b if pr is a else a
            got = self.solve_in("star.packed.low.deep-pair", jmask,
                                [(deep(s1), deep(door)),
                                 (deep(pr[0]), deep(pr[1]))])
            out[0] = _join([s1, deep(s1)], got[0], [deep(door), door, t1])
            ps, pt, pi = pr
            out[pi] = _join([ps, deep(ps)], got[1], [deep(pt), pt])
            os_, ot, oi = other
            q = self.region_path("star.packed.low.rim", fmask, over(os_),
                                 over(ot), avoid=self.x - {os_, ot})
            out[oi] = _join([os_, over(os_)], q, [over(ot), ot])
            return out
        whole_f = [j for j in (a, b) if j[0] in fset and j[1] in fset]
        if whole_f:
            pr = whole_f[0]
            other = b if pr is a else a
            ps, pt, pi = pr
            os_, ot, oi = other
            if os_ in fset and ot in fset:
                rg = self.sg.restrict(fmask)
                xr = sorted(self.x & fset)
                win = short_distance_pairs(rg, xr, [(ps, pt), (os_, ot)])
                _need(win, "star.packed.low.near-short",
                      "one far pair must admit a clean path")
                if 0 not in win:
                    pr, other = other, pr
                    ps, pt, pi = pr
                    os_, ot, oi = other
            out[pi] = self.region_path("star.packed.low.near-own", fmask,
                                       ps, pt, avoid=self.x - {ps, pt})
            out[oi] = self.detour("star.packed.low.hook4",
                                  "star.packed.low.carry4", os_, ot)
            q = self.region_path("star.packed.low.centre3", rmask, s1,
                                 door, avoid=self.x - {s1})
            out[0] = _join(q, [t1])
            return out
        # both small pairs straddle the faces; as in _low_split, with the
        # door in t1's place, the two near ends cannot both lack a hop
        a, b = _from_side(a, rmask), _from_side(b, rmask)
        got = self._straddle(out, ((b, a), (a, b)), door, rmask, fmask, over)
        _need(got is not None, "star.packed.low.hop",
              "no split assignment routes past the door")
        return got


def link_in_star(problem: StarProblem) -> Union[Linkage, ConfigDFRefusal]:
    """Disjoint routing of the pairing in a vertex star, or a refusal.

    The star dimension must make d odd and at least 5, with (d+1)/2 pairs.
    The refusal value is returned, not raised: it states that no valid
    linkage exists because a facet traps the centre pair.
    """
    d = problem.star.dim + 1
    if d < 5 or d % 2 == 0:
        raise ValueError("star routing needs odd dimension >= 5")
    if len(problem.pairs) != (d + 1) // 2:
        raise ValueError(f"expected {(d + 1) // 2} pairs")
    found = detect_config_dF(problem.star, problem.terminals, problem.pairs,
                             problem.center)
    if found is not None:
        return ConfigDFRefusal(found[0], found[1])
    router = _StarRouter(problem)
    paths = router.run()
    prob = LinkageProblem(router.sg, tuple(problem.pairs))
    return Linkage(tuple(tuple(q) for q in paths)).check_against(prob)


# -- whole-complex routing -------------------------------------------------------


def link_in_polytope(c: PolytopalComplex, x, y) -> Linkage:
    """Disjoint paths joining every pair of y inside the graph of c.

    Expects the boundary complex of a cubical d-polytope with d >= 4 and
    2*floor((d+1)/2) terminals.  Odd d routes through the star of the first
    source; even d picks a spare vertex and defers to strong_link_even.
    """
    d = c.dim + 1
    if d < 4:
        raise ValueError("dimension at least 4 required")
    y = tuple((int(s), int(t)) for s, t in y)
    terms = [v for pr in y for v in pr]
    if len(set(terms)) != len(terms):
        raise ValueError("terminals must be distinct")
    if set(terms) != set(int(v) for v in x):
        raise ValueError("pairing must cover the terminals exactly")
    k = (d + 1) // 2 if d % 2 else d // 2
    if len(y) != k:
        raise ValueError(f"expected {k} pairs for dimension {d}")
    g = c.graph()
    for v in terms:
        if not (g.active >> v) & 1:
            raise ValueError(f"terminal {v} not a vertex")
    if d % 2 == 0:
        spare = next((v for v in c.vertex_ids if v not in set(terms)),
                     None)
        _need(spare is not None, "poly.spare", "no spare vertex left")
        return strong_link_even(c, list(terms) + [spare], y, spare)
    s1, t1 = y[0]
    starc = vertex_star(c, s1)
    smask = starc.vertex_mask
    others = [t1] + [v for pr in y[1:] for v in pr]
    got = menger_paths(g.without([s1]), others,
                       sorted(bits(smask & ~(1 << s1))), d)
    _need(got is not None, "poly.fan", "no disjoint fan into the star")
    tail = {q[0]: list(q) for q in got}
    tail[s1] = [s1]
    ybar, found = _fan_ends(c, y, tail)
    if found is None:
        _mark("polytope.plain")
        out = _close_in_star(starc, y, ybar, tail, "poly.star",
                             "star refused outside the blocked pattern")
    else:
        out = _route_blocked(c, g, starc, smask, y, ybar, tail, *found)
    prob = LinkageProblem(g, y)
    return Linkage(tuple(tuple(q) for q in out)).check_against(prob)


def _fan_ends(c, y, tail):
    """The pairing of the fan's star ends, and the blocked pattern it
    realises (detect_config_dF's answer)."""
    ybar = [(tail[s][-1], tail[t][-1]) for s, t in y]
    return ybar, detect_config_dF(c, [v for pr in ybar for v in pr], ybar,
                                  y[0][0])


def _close_in_star(starc, y, ybar, tail, step, why) -> list[list[int]]:
    """Route the fan's end pairing ybar inside the star and close every
    pair of y over its fan tails; a refusal fails `step`."""
    res = link_in_star(StarProblem(starc, y[0][0], tuple(ybar)))
    _need(not isinstance(res, ConfigDFRefusal), step, why)
    return _close(tail, y, [_orient(q, s)
                            for q, (s, _) in zip(res.paths, ybar)])


def _route_blocked(c, g, starc, smask, y, ybar, tail, f1,
                   ctx: ConfigDFContext) -> list[list[int]]:
    """The fan endpoints realise the blocked pattern; fix it and route."""
    _need(ctx.next_facet is not None, "poly.context",
          "polytope ridge must have two facets")
    t1 = y[0][1]
    rjmask = mask_of(c.face_vertices(ctx.escape_ridge))
    order = [t1] + [v for pr in y[1:] for v in pr]
    touch = [v for v in order if mask_of(tail[v]) & rjmask]
    if touch:
        return _swap_blocked_tail(c, g, starc, smask, y, ybar, tail, ctx,
                                  touch)
    return _thread_blocked(c, g, y, ybar, tail, f1, ctx)


def _swap_blocked_tail(c, g, starc, smask, y, ybar, tail, ctx, touch):
    # some fan path already crosses the escape ridge: divert it at its first
    # ridge vertex along the ridge to a good vertex, which unblocks the
    # pattern.  In every blocked fan of Q_5 and of bicube_5 enumerated (see
    # test_linker), no crossing path holds a good vertex, the walk cannot
    # avoid the star, and it ends inside the star.
    _mark("polytope.blocked.swap")
    rjmask = mask_of(c.face_vertices(ctx.escape_ridge))
    shadow = c.chart(ctx.next_facet).project_to(ybar[0][1], ctx.escape_ridge)
    pick = next((v for v in touch if shadow not in tail[v]), None)
    if pick is None:
        _need(len(touch) == 1, "poly.blocked.tie",
              "several crossing fans all hold the shadow")
        pick = touch[0]
    tl = tail[pick]
    ji = next(i for i, u in enumerate(tl) if (rjmask >> u) & 1)
    othermask = mask_of(u for v, q in tail.items() if v != pick for u in q)
    walk = shortest_path(g, tl[ji], mask_of(ctx.good),
                         (rjmask & ~othermask) | (1 << tl[ji]))
    _need(walk is not None, "poly.blocked.walk",
          "no room on the escape ridge")
    _need((smask >> walk[-1]) & 1, "poly.blocked.land",
          "escape walk ends outside the star")
    tail2 = dict(tail)
    tail2[pick] = tl[:ji] + walk
    ybar2, found = _fan_ends(c, y, tail2)
    _need(found is None, "poly.blocked.again", "diversion failed to unblock")
    return _close_in_star(starc, y, ybar2, tail2, "poly.blocked.star",
                          "star refused after the diversion")


def _thread_blocked(c, g, y, ybar, tail, f1, ctx) -> list[list[int]]:
    # no fan path goes near the escape ridge, so the blocked facet can be
    # threaded directly: the fenced pair leaves through the parallel ridge,
    # everyone else crosses into the escape ridge and links there
    _mark("polytope.blocked.thread")
    s1 = y[0][0]
    t1b = ybar[0][1]
    chf = c.chart(f1)
    chj = c.chart(ctx.next_facet)
    barx = set(e for pr in ybar for e in pr)
    anchor = chf.project_to(t1b, ctx.opposite_ridge)
    _need(anchor in barx, "poly.steady.anchor",
          "fence vertex beside the trapped terminal must be marked")
    pos = next((i for i, pr in enumerate(ybar) if anchor in pr), None)
    _need(pos is not None and pos != 0, "poly.steady.centre",
          "fence vertex paired with the centre")
    mate = ybar[pos][1] if ybar[pos][0] == anchor else ybar[pos][0]
    rmask = mask_of(c.face_vertices(ctx.ridge))
    _need((rmask >> mate) & 1, "poly.steady.mate",
          "fence mate expected beside the trapped terminal")
    mid = chf.project_to(mate, ctx.opposite_ridge)
    _need(mid not in barx, "poly.steady.mid", "exit lane is marked")
    mids = [i for i in range(1, len(ybar)) if i != pos]
    s1r = chf.project_to(s1, ctx.ridge)
    prs = [(chj.project_to(s1r, ctx.escape_ridge),
            chj.project_to(t1b, ctx.escape_ridge))]
    for i in mids:
        sb, tb = ybar[i]
        _need((rmask >> sb) & 1 and (rmask >> tb) & 1, "poly.steady.inside",
              "marked vertex strayed off the trapped ridge")
        prs.append((chj.project_to(sb, ctx.escape_ridge),
                    chj.project_to(tb, ctx.escape_ridge)))
    rjg = g.restrict(mask_of(c.face_vertices(ctx.escape_ridge)))
    linked = _solve("poly.steady.linkage", rjg, prs)
    bar: list = [None] * len(ybar)
    bar[0] = _join([s1, s1r], linked[0], [t1b])
    for j, i in enumerate(mids):
        sb, tb = ybar[i]
        bar[i] = _join([sb], linked[j + 1], [tb])
    bar[pos] = _orient([anchor, mid, mate], ybar[pos][0])
    return _close(tail, y, bar)


def strong_link_even(c: PolytopalComplex, x, y, avoid: int) -> Linkage:
    """Route y while avoiding the unpaired vertex entirely.

    Even d only: x lists d+1 vertices, y pairs all of them except `avoid`.
    Terminals walk into the link of `avoid` along a disjoint fan and the
    pairing is finished inside the link, so no path can touch `avoid`.
    """
    d = c.dim + 1
    if d < 4 or d % 2:
        raise ValueError("even dimension >= 4 required")
    xs = sorted(set(int(v) for v in x))
    y = tuple((int(s), int(t)) for s, t in y)
    terms = [v for pr in y for v in pr]
    if len(set(terms)) != len(terms):
        raise ValueError("terminals must be distinct")
    if avoid in terms or set(terms) | {avoid} != set(xs) \
            or len(xs) != d + 1:
        raise ValueError("x must be y's terminals plus the avoided vertex")
    g = c.graph()
    lk = link(c, c.vertex_handle(avoid))
    got = menger_paths(g.without([avoid]), terms, sorted(lk.vertex_ids),
                       d)
    _need(got is not None, "even.fan", "no disjoint fan into the link")
    tail = {q[0]: list(q) for q in got}
    prs = [(tail[s][-1], tail[t][-1]) for s, t in y]
    linked = _attempt(lk.graph(), prs)
    if linked is not None:
        _mark("even.link")
        out = _close(tail, y, linked)
    else:
        # the link of a vertex in a 4-polytope is not quite 2-linked: a
        # pairing crossed on a square of the link has no linkage there
        # even when one exists globally.  Reroute off the link.
        _mark("even.rescue")
        out = _solve("even.rescue", g.without([avoid]), y)
    prob = LinkageProblem(g, y, frozenset({avoid}))
    return Linkage(tuple(tuple(q) for q in out)).check_against(prob)
