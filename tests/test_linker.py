import ast
import hashlib
import inspect
import itertools
import os
import pickle
import random
import re
import sys
import textwrap
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import CodeType

import pytest

import cubelink.linker as linker
from conftest import naive_linked
from cubelink.complexes import PolytopalComplex, vertex_star
from cubelink.cube import cube_graph, faces_of_dim
from cubelink.generators import (
    InstanceSpec,
    build_star,
    cube_boundary,
    glued_cubes,
    star_instance,
)
from cubelink.linker import (
    ConfigDFRefusal,
    ProofStepError,
    StarProblem,
    detect_config_dF,
    link_in_polytope,
    link_in_star,
    strong_link_even,
)
from cubelink.graphs import bits
from cubelink.oracle import LinkageProblem, menger_paths, pairings, \
    solve_linkage


@pytest.fixture
def counter():
    linker.BRANCH_COUNTER = {}
    yield linker.BRANCH_COUNTER
    linker.BRANCH_COUNTER = None


Q5 = cube_boundary(5)
Q5_STAR = star_instance(Q5, 0).complex
Q4 = cube_boundary(4)
G4 = glued_cubes(4, 2)
G5 = glued_cubes(5, 2)


def test_proof_step_error_carries_step():
    e = ProofStepError("star.spread.far", "boom")
    assert e.step == "star.spread.far"
    assert "star.spread.far" in str(e) and "boom" in str(e)
    back = pickle.loads(pickle.dumps(e))     # as a campaign worker sends it
    assert (back.step, back.reason, str(back)) == (e.step, e.reason, str(e))


def test_star_problem_validation():
    with pytest.raises(ValueError):  # centre must open the first pair
        StarProblem(Q5_STAR, 0, ((1, 2), (3, 4), (5, 6)))
    with pytest.raises(ValueError):  # duplicate terminal
        StarProblem(Q5_STAR, 0, ((0, 1), (1, 2), (3, 4)))
    with pytest.raises(ValueError):  # 31 is the antipode, not in the star
        StarProblem(Q5_STAR, 0, ((0, 31), (1, 2), (3, 4)))
    p = StarProblem(Q5_STAR, 0, ((0, 3), (5, 6), (9, 12)))
    assert p.terminals == (0, 3, 5, 6, 9, 12)


def test_detect_config_dF_positive():
    # all six terminals in the facet x4=0, centre pair antipodal there,
    # every facet neighbour of the far terminal marked
    pairs = ((0, 15), (7, 11), (13, 14))
    x = [v for pr in pairs for v in pr]
    found = detect_config_dF(Q5_STAR, x, pairs, 0)
    assert found is not None
    f, ctx = found
    assert sorted(Q5_STAR.face_vertices(f)) == list(range(16))
    ridge = set(Q5_STAR.face_vertices(ctx.ridge))
    opp = set(Q5_STAR.face_vertices(ctx.opposite_ridge))
    assert 15 in ridge and 0 in opp
    assert not ridge & opp and ridge | opp == set(range(16))
    # the bare star owns no second facet on that ridge
    assert ctx.next_facet is None and ctx.escape_ridge is None


def test_detect_config_dF_negative_and_guards():
    pairs = ((0, 15), (7, 11), (13, 6))   # 14 unmarked frees a neighbour
    x = [v for pr in pairs for v in pr]
    assert detect_config_dF(Q5_STAR, x, pairs, 0) is None
    with pytest.raises(ValueError):
        detect_config_dF(G4, [0, 1, 2, 3], ((0, 1), (2, 3)), 0)
    with pytest.raises(ValueError):
        detect_config_dF(Q5_STAR, x, pairs, 9)


def test_detect_context_on_full_polytope_has_escape():
    pairs = ((0, 15), (7, 11), (13, 14))
    x = [v for pr in pairs for v in pr]
    found = detect_config_dF(Q5, x, pairs, 0)
    assert found is not None
    _, ctx = found
    assert ctx.next_facet is not None
    rj = set(Q5.face_vertices(ctx.escape_ridge))
    assert set(ctx.good) | set(ctx.bad) == rj
    assert not set(ctx.good) & set(ctx.bad)


def test_link_in_star_guards():
    q3star = star_instance(cube_boundary(3), 0).complex
    with pytest.raises(ValueError):
        link_in_star(StarProblem(q3star, 0, ((0, 3), (5, 6))))
    with pytest.raises(ValueError):
        link_in_star(StarProblem(Q5_STAR, 0, ((0, 3), (5, 6))))


def test_link_in_star_refusal_matches_oracle():
    pairs = ((0, 15), (7, 11), (13, 14))
    res = link_in_star(StarProblem(Q5_STAR, 0, pairs))
    assert isinstance(res, ConfigDFRefusal)
    assert sorted(Q5_STAR.face_vertices(res.facet)) == list(range(16))
    g = Q5_STAR.graph()
    assert solve_linkage(LinkageProblem(g, pairs)) is None


PACKED_FIRST_HITS = [
    (((0, 7), (1, 2), (3, 4)), "star.packed.low.all_near"),
    (((0, 15), (1, 2), (3, 4)), "star.packed.low.antipode"),
    (((0, 1), (2, 3), (4, 6)), "star.packed.low.pair_far"),
    (((0, 1), (2, 3), (4, 5)), "star.packed.low.pair_near"),
    (((0, 1), (2, 4), (3, 5)), "star.packed.low.split"),
]


@pytest.mark.parametrize("pairs,branch", PACKED_FIRST_HITS)
def test_packed_star_branches(counter, pairs, branch):
    res = link_in_star(StarProblem(Q5_STAR, 0, pairs))
    assert not isinstance(res, ConfigDFRefusal)
    assert counter.get("star.packed") == 1
    assert counter.get(branch) == 1


def test_star_campaign_matches_oracle_and_covers_branches(counter):
    g = Q5_STAR.graph()
    others = sorted(v for v in Q5_STAR.vertex_ids if v)
    rng = random.Random(20260815)
    refused = 0
    for _ in range(2500):
        chosen = rng.sample(others, 5)
        prs = list(pairings(tuple(chosen[1:])))
        pr = ((0, chosen[0]),) + prs[rng.randrange(len(prs))]
        res = link_in_star(StarProblem(Q5_STAR, 0, pr))
        x = [v for p in pr for v in p]
        det = detect_config_dF(Q5_STAR, x, pr, 0)
        ok = solve_linkage(LinkageProblem(g, pr)) is not None
        if isinstance(res, ConfigDFRefusal):
            refused += 1
            assert det is not None and not ok
        else:
            assert det is None and ok
    # routing succeeded on everything the oracle links; the seed covers
    # every case of the analysis reachable at this dimension
    want = {
        "star.one_out", "star.one_out.antipodal",
        "star.spread", "star.spread.far_side", "star.spread.same_side",
        "star.pair_only", "star.pair_only.multi",
        "star.packed", "star.packed.low.all_near",
        "star.packed.low.antipode", "star.packed.low.pair_far",
        "star.packed.low.pair_near", "star.packed.low.split",
    }
    assert want <= set(counter)


def test_star_campaign_on_glued_chain_star():
    st = build_star(InstanceSpec("star_of_vertex", dim=5, chain_length=2))
    g = st.complex.graph()
    others = sorted(v for v in st.complex.vertex_ids if v != st.center)
    rng = random.Random(7)
    for _ in range(300):
        chosen = rng.sample(others, 5)
        prs = list(pairings(tuple(chosen[1:])))
        pr = ((st.center, chosen[0]),) + prs[rng.randrange(len(prs))]
        res = link_in_star(StarProblem(st.complex, st.center, pr))
        ok = solve_linkage(LinkageProblem(g, pr)) is not None
        assert isinstance(res, ConfigDFRefusal) == (not ok)


def test_link_in_polytope_guards():
    with pytest.raises(ValueError):
        link_in_polytope(glued_cubes(3, 2), [0, 1, 2, 3],
                         ((0, 1), (2, 3)))
    with pytest.raises(ValueError):  # pairing must cover x
        link_in_polytope(Q5, [0, 1, 2, 3, 4, 6], ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(ValueError):  # duplicate terminal
        link_in_polytope(Q5, [0, 1, 2, 3, 4], ((0, 1), (2, 3), (4, 0)))
    with pytest.raises(ValueError):  # wrong pair count
        link_in_polytope(Q5, [0, 1, 2, 3], ((0, 1), (2, 3)))


SWAP_INSTANCES = [
    ((0, 31), (14, 7), (11, 13)),
    ((1, 30), (15, 6), (10, 12)),
    ((7, 24), (9, 0), (10, 12)),
]


@pytest.mark.parametrize("pairs", SWAP_INSTANCES)
def test_blocked_fan_swaps_a_crossing_tail(counter, pairs):
    x = [v for pr in pairs for v in pr]
    lk = link_in_polytope(G5, x, pairs)
    assert counter.get("polytope.blocked.swap") == 1
    for path, pr in zip(lk.paths, pairs):
        assert {path[0], path[-1]} == set(pr)


def test_blocked_fan_threads_the_facet(counter):
    # all six terminals already sit packed inside one facet of the star,
    # so no fan tail goes near the escape ridge
    pairs = ((0, 15), (7, 11), (13, 14))
    for c in (Q5, G5):
        lk = link_in_polytope(c, [v for p in pairs for v in p], pairs)
        assert solve_linkage(
            LinkageProblem(c.graph(), pairs)) is not None
        assert lk is not None
    assert counter.get("polytope.blocked.thread") == 2


def test_far_pair_landing_regression(counter):
    # the far small pair must land on facet vertices the centre routing
    # has not reserved; this pairing used to collide
    pairs = ((16, 6), (36, 47), (44, 34))
    lk = link_in_polytope(G5, [v for p in pairs for v in p], pairs)
    assert counter.get("star.pair_only.multi") == 1
    assert len(lk.paths) == 3


def test_polytope_campaign_glued5(counter):
    ids = sorted(G5.vertex_ids)
    g = G5.graph()
    rng = random.Random(11)
    for i in range(400):
        chosen = rng.sample(ids, 6)
        prs = list(pairings(tuple(chosen)))
        pr = prs[rng.randrange(len(prs))]
        lk = link_in_polytope(G5, chosen, pr)
        if i % 10 == 0:
            assert solve_linkage(LinkageProblem(g, pr)) is not None
    assert counter.get("polytope.plain", 0) > 300


def test_polytope_even_dimension_picks_spare():
    pairs = ((0, 15), (5, 10))
    lk = link_in_polytope(Q4, [0, 15, 5, 10], pairs)
    for path, pr in zip(lk.paths, pairs):
        assert {path[0], path[-1]} == set(pr)
    lk2 = link_in_polytope(G4, [0, 23, 9, 17], ((0, 23), (9, 17)))
    assert len(lk2.paths) == 2


def test_strong_link_even_guards():
    with pytest.raises(ValueError):
        strong_link_even(Q5, [0, 1, 2, 3, 4, 5], ((0, 1), (2, 3)), 5)
    with pytest.raises(ValueError):  # avoid may not be a terminal
        strong_link_even(Q4, [0, 1, 2, 3, 5], ((0, 1), (2, 3)), 0)
    with pytest.raises(ValueError):  # x must be terminals plus avoid
        strong_link_even(Q4, [0, 1, 2, 3, 5, 6], ((0, 1), (2, 3)), 5)


def test_strong_link_even_plain_branch(counter):
    lk = strong_link_even(Q4, [0, 3, 5, 6, 15], ((0, 3), (5, 6)), 15)
    assert counter.get("even.link") == 1
    assert all(15 not in p for p in lk.paths)


EVEN_RESCUES = [
    (Q4, ((3, 13), (9, 5)), 12),
    (G4, ((12, 16), (20, 4)), 18),
    (G4, ((6, 12), (14, 4)), 13),
    (G4, ((7, 14), (6, 15)), 10),
    (G4, ((20, 17), (21, 16)), 23),
    (G4, ((21, 11), (23, 19)), 1),
    (G4, ((14, 21), (12, 23)), 7),
]


@pytest.mark.parametrize("c,pairs,avoid", EVEN_RESCUES)
def test_strong_link_even_rescue_regressions(counter, c, pairs, avoid):
    x = [v for pr in pairs for v in pr] + [avoid]
    lk = strong_link_even(c, x, pairs, avoid)
    assert counter.get("even.rescue") == 1
    seen = set()
    for path, pr in zip(lk.paths, pairs):
        assert {path[0], path[-1]} == set(pr)
        assert avoid not in path
        assert not seen & set(path)
        seen |= set(path)


def test_q4_offset_squares_need_rescue(counter):
    # the cube graph minus an antipodal vertex pair is not 2-linked: a
    # crossed pairing on any 2-face untouched by the removed pair has no
    # in-place linkage, so the even construction must re-route globally.
    # With 12 removed there are exactly twelve such squares.
    g = cube_graph(4).without([12, 3])
    squares = [f for f in faces_of_dim(4, 2)
               if not {3, 12} & set(f.vertices())]
    assert len(squares) == 12
    for f in squares:
        a, b, c_, d_ = sorted(f.vertices())
        crossed = ((a, d_), (b, c_))      # both pairs are diagonals
        assert solve_linkage(LinkageProblem(g, crossed)) is None
        assert not naive_linked(g, crossed)
        lk = strong_link_even(Q4, [a, b, c_, d_, 12], crossed, 12)
        assert all(12 not in p for p in lk.paths)
    assert counter.get("even.rescue") == 12


def test_even_campaign_sampled(counter):
    rng = random.Random(23)
    for c in (Q4, G4):
        ids = sorted(c.vertex_ids)
        g = c.graph()
        for _ in range(200):
            chosen = rng.sample(ids, 5)
            avoid = chosen[4]
            pr = ((chosen[0], chosen[1]), (chosen[2], chosen[3]))
            lk = strong_link_even(c, chosen, pr, avoid)
            assert all(avoid not in p for p in lk.paths)
    assert counter.get("even.link", 0) + counter.get("even.rescue", 0) == 400
    assert counter.get("even.rescue", 0) > 0


def _routing_digest(route, runs) -> tuple[str, dict]:
    """sha256 over the paths of every routing (a star refusal hashes as
    itself) and the branch counts, with the counts."""
    saved = linker.BRANCH_COUNTER
    linker.BRANCH_COUNTER = counts = {}
    try:
        h = hashlib.sha256()
        for args in runs:
            res = route(*args)
            h.update(repr(getattr(res, "paths", res)).encode())
        h.update(repr(sorted(counts.items())).encode())
    finally:
        linker.BRANCH_COUNTER = saved
    return h.hexdigest(), counts


def _polytope_runs(c, n, seed):
    # the criterion-8 generator
    ids = sorted(c.vertex_ids)
    rng = random.Random(seed)
    for _ in range(n):
        chosen = rng.sample(ids, 6)
        prs = list(pairings(tuple(chosen)))
        yield c, chosen, prs[rng.randrange(len(prs))]


def _even_runs(c, n, seed):
    # the criterion-9 generator
    ids = sorted(c.vertex_ids)
    rng = random.Random(seed)
    for _ in range(n):
        chosen = rng.sample(ids, 5)
        prs = list(pairings(tuple(chosen[1:])))
        yield c, chosen, prs[rng.randrange(len(prs))], chosen[0]


def _star_route(st, pairs):
    return link_in_star(StarProblem(st, pairs[0][0], pairs))


def _star_runs(vs, n, seed):
    # the criterion-7 generator
    others = sorted(v for v in vs.complex.vertex_ids if v != vs.center)
    rng = random.Random(seed)
    for _ in range(n):
        chosen = rng.sample(others, 5)
        prs = list(pairings(tuple(chosen[1:])))
        yield vs.complex, ((vs.center, chosen[0]),) + \
            prs[rng.randrange(len(prs))]


# Star problems that reach the rarer fallbacks of the d = 5 cases, found by
# enumerating the packed star instances and sampling the one-out ones.
RARE_Q5_STAR = [
    ((0, 21), (13, 25), (29, 18)),   # one_out.antipodal on a packed ridge
    ((0, 1), (2, 4), (6, 10)),       # low.pair_far with no hop
    ((0, 3), (1, 2), (4, 9)),        # low.pair_near keeping the centre pair
    ((0, 3), (1, 15), (5, 9)),       # low.split through the antistar
    ((0, 9), (1, 15), (3, 5)),       # the same with a two-step walk
    ((0, 15), (4, 7), (5, 6)),       # low.antipode with the far pairs swapped
    ((0, 15), (7, 11), (13, 14)),    # refused
]
RARE_G5_STAR = [
    ((16, 1), (0, 17), (4, 5)),      # low.all_near on its second try
]


def _q5_star_runs():
    vs = star_instance(cube_boundary(5), 0)
    for pairs in [p for p, _ in PACKED_FIRST_HITS] + RARE_Q5_STAR:
        yield vs.complex, pairs
    yield from _star_runs(vs, 1500, 31)


def _g5_star_runs():
    vs = build_star(InstanceSpec("star_of_vertex", dim=5, chain_length=2))
    for pairs in RARE_G5_STAR:
        yield vs.complex, pairs
    yield from _star_runs(vs, 1000, 32)


def _q7_star():
    # cube_boundary stops at d = 6, so build the 7-cube from its faces
    levels = [[tuple(sorted(f.vertices())) for f in faces_of_dim(7, j)]
              for j in range(7)]
    return vertex_star(PolytopalComplex(range(128), levels, check=False), 0)


def _packed_runs(st, n, seed):
    # all eight terminals inside the facet x6 = 0 of the star of 0, so the
    # heavy facet is packed and the d >= 7 cases run; every other instance
    # pairs the centre with its antipode 63 in that facet
    rng = random.Random(seed)
    for r in range(n):
        chosen = ([63] + rng.sample(range(1, 63), 6) if r % 2
                  else rng.sample(range(1, 64), 7))
        prs = list(pairings(tuple(chosen[1:])))
        yield st, ((0, chosen[0]),) + prs[rng.randrange(len(prs))]


def _rescue_runs():
    for c, pairs, avoid in EVEN_RESCUES:
        yield c, [v for pr in pairs for v in pr] + [avoid], pairs, avoid


def _blocked_runs():
    for pairs in SWAP_INSTANCES:
        yield G5, [v for pr in pairs for v in pr], pairs
    pairs = ((0, 15), (7, 11), (13, 14))
    for c in (Q5, G5):
        yield c, [v for pr in pairs for v in pr], pairs


# Swap shapes that SWAP_INSTANCES miss, found by enumerating every blocked
# fan of Q_5 (centre the least terminal) and of bicube_5 centred at 0 and
# at 16 (one centre per vertex class).
SWAP_SHAPES = [
    ((0, 47), (7, 11), (13, 14)),    # the crossing fan path meets the
                                     # escape ridge after one step
    ((16, 7), (3, 5), (6, 31)),      # it misses the shadow of t1's end
    ((16, 15), (3, 5), (6, 31)),     # two cross, one holds that shadow
]


def _swap_runs():
    c = glued_cubes(5, 2)
    for pairs in SWAP_SHAPES:
        yield c, [v for pr in pairs for v in pr], pairs


# Pinned digests of the routings below.  Each set runs twice on the same
# complexes, so cold lattice caches (most sets build fresh complexes) and
# warm ones must both reproduce them; any change to a path, a refusal or a
# branch count fails here.
POLYTOPE_DIGEST = "b7a253bf2de6a18a017a0eefcd102a0e47dec2b6c7111870c8e0c2348aed0175"
EVEN_DIGEST = "f4313d5a1938d4d438d4929851649d37512e8daea103199b9d955c630e6b3209"
Q5_STAR_DIGEST = "cbe2946b75b6a0f5a14944dba660e428de9f5e7983ba8b6622fccdf980dc86d8"
G5_STAR_DIGEST = "bb1777ddfcf81d0e16344446dd38ade5effc13c529e54719943d30dbd7428d9a"
Q7_PACKED_DIGEST = "5bd3d50e71b9774d124e0918f078fa5fb9b17cac3cb6b73eb08fc6b146e5a2e1"
BLOCKED_DIGEST = "7bba77078534fe6ddfde8f3934d142ea6a9d87fe6c4ac66260293f617dd9aff7"
RESCUE_DIGEST = "132465e320ef8544beecdc206efb689319d3c55613948a282c08f9267fcac8ab"
SWAP_DIGEST = "aced0092283f1f33a543f149ba94fbdaaa090863b41b4f9bfab55dcd3bcce6a3"


def _pinned_routings():
    """(name, route, runs factory on a fresh complex, digest)."""
    return [
        ("polytope", link_in_polytope,
         lambda: _polytope_runs(glued_cubes(5, 2), 300, 8), POLYTOPE_DIGEST),
        ("even", strong_link_even,
         lambda: _even_runs(glued_cubes(4, 2), 300, 9), EVEN_DIGEST),
        ("q5_star", _star_route, _q5_star_runs, Q5_STAR_DIGEST),
        ("g5_star", _star_route, _g5_star_runs, G5_STAR_DIGEST),
        ("q7_packed", _star_route, lambda: _packed_runs(_q7_star(), 2000, 33),
         Q7_PACKED_DIGEST),
        ("blocked", link_in_polytope, _blocked_runs, BLOCKED_DIGEST),
        ("rescue", strong_link_even, _rescue_runs, RESCUE_DIGEST),
        ("swap", link_in_polytope, _swap_runs, SWAP_DIGEST),
    ]


def _marked_ids() -> set[str]:
    return set(re.findall(r'_mark\("([^"]+)"\)', inspect.getsource(linker)))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


@contextmanager
def _lines_run(fns, ran: set):
    """Add to `ran` the number of every line of fns (nested functions
    included) that runs inside the block; the tracer in place before is
    restored after."""
    codes = {k for fn in fns for k in _code_objects(fn.__code__)}

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    saved = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code in codes else None)
    try:
        yield
    finally:
        sys.settrace(saved)


def _statement_lines(fn) -> list[range]:
    """The lines of every statement in fn's body that a line tracer can
    report: all of a simple statement, the header of a compound one.
    Raises, docstrings and `try` headers are left out."""
    src, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(src)))
    ast.increment_lineno(tree, first - 1)
    top = tree.body[0]
    docs = {id(node.body[0]) for node in ast.walk(top)
            if isinstance(node, ast.FunctionDef)
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    spans = []
    for node in ast.walk(top):
        if (node is top or not isinstance(node, ast.stmt)
                or isinstance(node, (ast.Raise, ast.Try))
                or id(node) in docs):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        spans.append(range(node.lineno, last + 1))
    return spans


def _unrun_statements(fns, ran: set) -> list[int]:
    return [span.start for fn in fns for span in _statement_lines(fn)
            if not ran.intersection(span)]


# Every statement of these runs under the pinned digests, apart from raises.
GUARDED = [f for f in vars(linker._StarRouter).values()
           if inspect.isfunction(f)] + [linker._swap_blocked_tail]


def test_routing_output_pinned_cold_and_warm():
    seen = set()
    ran: set = set()
    for name, route, runs, digest in _pinned_routings():
        first = list(runs())
        for warm in (False, True):      # cold, then warm lattice caches
            with nullcontext() if warm else _lines_run(GUARDED, ran):
                got, counts = _routing_digest(route, first)
            assert got == digest, name
        seen |= set(counts)
    # every branch of the router is pinned, the d = 7 cases included
    assert len(_marked_ids()) == 21
    assert seen == _marked_ids()
    # and every line of the star router and of the blocked-fan swap
    assert _unrun_statements(GUARDED, ran) == []


@pytest.mark.skipif(os.environ.get("ACCEPTANCE_FULL") != "1",
                    reason="enumeration of several minutes: ACCEPTANCE_FULL=1")
def test_straddle_and_swap_run_whole_on_full_enumeration():
    """The evidence for the branches cut from `_straddle` and
    `_swap_blocked_tail`, re-runnable: every packed instance of the
    bicube_5 star of 16 and every blocked fan of Q_5 centred at 0 route
    without a ProofStepError, and between them run every line left in
    both.  Criterion 7's full form covers the Q_5 star."""
    vs = build_star(InstanceSpec("star_of_vertex", dim=5, chain_length=2))
    st, c0 = vs.complex, vs.center
    packed = set()
    for f in st.facets():
        near = sorted(set(st.face_vertices(f)) - {c0})
        for five in itertools.combinations(near, 5):
            for i in range(5):
                for pr in pairings(five[:i] + five[i + 1:]):
                    packed.add(((c0, five[i]),) + pr)
    g = Q5.graph().without([0])
    sinks = sorted(bits(vertex_star(Q5, 0).vertex_mask & ~1))
    blocked = []
    for five in itertools.combinations(range(1, 32), 5):
        # link_in_polytope's fan, which depends on the terminal set only
        tail = {q[0]: q for q in menger_paths(g, five, sinks, 5)}
        tail[0] = [0]
        for i in range(5):
            for pr in pairings(five[:i] + five[i + 1:]):
                y = ((0, five[i]),) + pr
                if linker._fan_ends(Q5, y, tail)[1] is not None:
                    blocked.append(y)
    assert len(packed) == 355320 and len(blocked) == 18
    fns = [linker._StarRouter._straddle, linker._swap_blocked_tail]
    ran: set = set()
    with _lines_run(fns, ran):
        for pairs in sorted(packed):
            link_in_star(StarProblem(st, c0, pairs))
        for y in blocked:
            link_in_polytope(Q5, [v for pr in y for v in pr], y)
    assert _unrun_statements(fns, ran) == []


def test_benchmark_lists_every_odd_dimension_branch():
    # perfbench/worker.py counts only the branches it lists in BRANCHES and
    # lumps every other id into linker.branch.other
    src = (Path(__file__).parents[1] / "perfbench" / "worker.py").read_text()
    listed = next(ast.literal_eval(node.value)
                  for node in ast.parse(src).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["BRANCHES"])
    odd = {b for b in _marked_ids() if not b.startswith("even.")}
    assert odd <= set(listed)
