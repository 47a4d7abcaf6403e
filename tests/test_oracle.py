import hashlib
import itertools
import json
import math
import operator
import random
import time

import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import cubelink.symmetry
from cubelink import linker, oracle

from conftest import (
    batched,
    brute_min_vertex_cut,
    count_pairings,
    instance_batch,
    linked_instances,
    naive_linked,
    pinned_instances,
    queue_bfs,
    random_graph,
    random_problem,
    sampled_instances,
)
from cubelink.cube import cube_graph
from cubelink.generators import cube_boundary, glued_cubes, star_instance
from cubelink.graphs import bits, graph_from_edges, mask_of
from cubelink.oracle import (
    CAMPAIGN_BATCH,
    Linkage,
    LinkageProblem,
    SearchBudgetExceeded,
    Verdict,
    campaign,
    enumerate_separators,
    k23_witness,
    menger_paths,
    pairings,
    short_distance_pairs,
    solve_linkage,
    verify_k_linked,
    verify_strongly_linked,
)


def test_problem_validation():
    g = cube_graph(3)
    with pytest.raises(ValueError):
        LinkageProblem(g, ((0, 0),))
    with pytest.raises(ValueError):
        LinkageProblem(g, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        LinkageProblem(g, ((0, 9),))
    with pytest.raises(ValueError):
        LinkageProblem(g, ((0, 1),), forbidden=frozenset({1}))
    with pytest.raises(ValueError):
        LinkageProblem(g, ((0, 1),), forbidden=frozenset({12}))
    p = LinkageProblem(g, ((3, 0),))
    assert p.pairs == ((0, 3),)
    assert p.k == 1


def test_linkage_check_rejects_bad_paths():
    g = cube_graph(3)
    p = LinkageProblem(g, ((0, 3), (4, 6)))
    Linkage(((0, 1, 3), (4, 6))).check_against(p)
    with pytest.raises(ValueError):
        Linkage(((0, 1, 3),)).check_against(p)
    with pytest.raises(ValueError):  # wrong endpoint
        Linkage(((0, 1, 5), (4, 6))).check_against(p)
    with pytest.raises(ValueError):  # non-edge 0-3
        Linkage(((0, 3), (4, 6))).check_against(p)
    with pytest.raises(ValueError):  # shared vertex 2
        Linkage(((0, 2, 3), (4, 6, 2, 0)) ).check_against(p)
    with pytest.raises(ValueError):  # revisit
        Linkage(((0, 1, 0, 2, 3), (4, 6))).check_against(p)
    q = LinkageProblem(g, ((0, 3),), forbidden=frozenset({1}))
    with pytest.raises(ValueError):
        Linkage(((0, 1, 3),)).check_against(q)
    Linkage(((0, 2, 3),)).check_against(q)


def test_verdict_witness_iff_counterexample():
    with pytest.raises(ValueError):
        Verdict("verified", 1, LinkageProblem(cube_graph(2), ((0, 3),)), 0)
    with pytest.raises(ValueError):
        Verdict("counterexample", 1, None, 0)
    v = Verdict("verified", 5, None, 2)
    d = v.to_json_dict()
    assert d == {"status": "verified", "checked": 5, "witness": None,
                 "elapsed_ms": 2, "seed": None}


def test_solve_agrees_with_naive_enumerator():
    rng = random.Random(20260815)
    cases = disagreements = 0
    while cases < 1000:
        n = rng.randrange(4, 15)
        g = random_graph(rng, n, rng.uniform(0.12, 0.5))
        made = random_problem(rng, g, rng.randrange(1, 4),
                              forbid=rng.randrange(0, 3))
        if made is None:
            continue
        pairs, forbidden = made
        p = LinkageProblem(g, pairs, forbidden)
        got = solve_linkage(p)
        want = naive_linked(g, pairs, forbidden)
        if (got is not None) != want:
            disagreements += 1
        if got is not None:
            got.check_against(p)
        cases += 1
    assert cases >= 1000
    assert disagreements == 0


def test_solve_on_structured_graphs_vs_naive():
    rng = random.Random(7)
    g3 = cube_graph(3)
    ids = sorted(bits(g3.active))
    for subset in itertools.combinations(ids, 4):
        for pr in pairings(subset):
            p = LinkageProblem(g3, pr)
            assert (solve_linkage(p) is not None) == naive_linked(g3, pr)
    for _ in range(200):
        drop = rng.sample(ids, 2)
        g = g3.without(drop)
        made = random_problem(rng, g, 2)
        if made is None:
            continue
        pairs, _ = made
        p = LinkageProblem(g, pairs)
        assert (solve_linkage(p) is not None) == naive_linked(g, pairs)


def test_budget_exhaustion_is_an_error():
    # crossed pairs on a 2-face of Q_3 admit no linkage, but refuting that
    # takes real search, so a one-node cap must abort instead of answering
    g = cube_graph(3)
    p = LinkageProblem(g, ((0, 3), (1, 2)))
    assert solve_linkage(p) is None
    assert not naive_linked(g, p.pairs)
    with pytest.raises(SearchBudgetExceeded):
        solve_linkage(p, budget=1)


def test_menger_paths_contract():
    g = cube_graph(3)
    a, b = [0, 1, 2], [5, 6, 7]
    got = menger_paths(g, a, b, 3)
    assert got is not None and len(got) == 3
    seen = set()
    for path in got:
        assert path[0] in a and path[-1] in b
        for v in path[1:]:
            assert v not in a
        for v in path[:-1]:
            assert v not in b
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)
        assert not (seen & set(path))
        seen |= set(path)
    with pytest.raises(ValueError):
        menger_paths(g, [0, 1], b, 3)
    # K_4 minus a perfect matching leaves a 4-cycle: only 2 disjoint paths
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert menger_paths(c4, [0], [2], 1) is not None
    assert menger_paths(c4, [0, 1], [2, 3], 2) is not None


def test_menger_count_matches_brute_min_cut():
    rng = random.Random(99)
    done = 0
    while done < 1000:
        n = rng.randrange(5, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        ids = sorted(bits(g.active))
        if len(ids) < 4:
            continue
        asz = rng.randrange(1, 4)
        bsz = rng.randrange(1, 4)
        if asz + bsz > len(ids):
            continue
        chosen = rng.sample(ids, asz + bsz)
        a, b = chosen[:asz], chosen[asz:]
        want = brute_min_vertex_cut(g, a, b)
        top = min(asz, bsz)
        got = 0
        for k in range(1, top + 1):
            if menger_paths(g, a, b, k) is None:
                break
            got = k
        assert got == min(want, top)
        if want <= top:
            assert got == want
        done += 1


def test_pairings_and_counts():
    assert list(pairings(())) == [()]
    assert list(pairings((1, 2))) == [((1, 2),)]
    four = list(pairings((0, 1, 2, 3)))
    assert four == [(((0, 1)), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    for m in (2, 4, 6, 8):
        items = tuple(range(m))
        got = list(pairings(items))
        assert len(got) == count_pairings(m)
        for pr in got:
            flat = sorted(v for p in pr for v in p)
            assert flat == list(items)
    assert [count_pairings(m) for m in (0, 2, 4, 6, 8)] == [1, 1, 3, 15, 105]


def test_instance_enumeration_counts():
    q3 = sorted(bits(cube_graph(3).active))
    assert sum(map(len, oracle._linked_batches(q3, 2, False))) == 210
    q4 = sorted(bits(cube_graph(4).active))
    assert sum(map(len, oracle._linked_batches(q4, 2, True))) == 65520
    got = list(sampled_instances(q4, 2, True, 50, seed=3))
    assert got == list(sampled_instances(q4, 2, True, 50, seed=3))
    assert len(got) == 50
    for subset, forb, pr in got:
        assert len(subset) == 5 and len(forb) == 1
        assert forb[0] in subset
        flat = {v for p in pr for v in p}
        assert flat == set(subset) - {forb[0]}


def test_labelled_stream_matches_reference():
    # batch[i] over the array stream is the itertools reference, in order
    # and across batch boundaries, also with no pair at all (k = 0)
    for g in (cube_graph(3), cube_graph(4), glued_cubes(4, 2).graph()):
        ids = sorted(g.vertices())
        for k, strong in itertools.product((0, 1, 2), (False, True)):
            size = 2 * k + strong
            small = math.comb(len(ids), size) < 5000
            for per_batch in ((7, oracle.SWEEP_BATCH) if small else (9973,)):
                batches = list(oracle._linked_batches(ids, k, strong,
                                                      per_batch))
                assert [len(b) for b in batches[:-1]] \
                    == [per_batch] * (len(batches) - 1)
                assert all(b.src.shape == b.dst.shape == (len(b), k)
                           and b.forb.shape == (len(b), int(strong))
                           for b in batches)
                got = (b[i] for b in batches for i in range(len(b)))
                want = linked_instances(ids, k, strong)
                assert all(itertools.starmap(
                    operator.eq, itertools.zip_longest(got, want)))


def test_pinned_stream_matches_reference():
    # the star campaign's stream: the subsets that hold the centre, in
    # combinations order of their other vertices, as the itertools
    # reference gives them, on the Q_5 star of 0 and the bicube_5 star of 16
    for c, centre in ((cube_boundary(5), 0), (glued_cubes(5, 2), 16)):
        ids = sorted(star_instance(c, centre).complex.vertex_ids)
        got = (b[i] for b in oracle._linked_batches(ids, 3, False,
                                                    pinned=centre)
               for i in range(len(b)))
        want = pinned_instances(ids, centre, 3)
        assert list(itertools.islice(got, 50000)) \
            == list(itertools.islice(want, 50000))
    ids = range(31)          # the Q_5 star of 0: all but the antipode 31
    assert sum(map(len, oracle._linked_batches(
        ids, 3, False, oracle.SWEEP_BATCH, pinned=0))) \
        == math.comb(30, 5) * 15 == 2137590


def test_rebatch_cuts_fixed_batches_from_any_parts():
    import numpy as np
    rng = random.Random(3)
    for _ in range(50):
        sizes = [rng.choice((0, 1, 5, 12, 40))
                 for _ in range(rng.randrange(6))]
        parts = []
        first = 0
        for n in sizes:
            parts.append(np.arange(first, first + n, dtype=np.uint64)
                         .repeat(3).reshape(n, 3))
            first += n
        per_batch = rng.randrange(1, 15)
        got = list(oracle._rebatch(iter(parts), 1, per_batch))
        assert [len(b) for b in got] == [min(per_batch, first - at) for at in
                                         range(0, first, per_batch)]
        assert [b[i][1] for b in got for i in range(len(b))] \
            == [(v,) for v in range(first)]


# (graph, k, strong, seed); the graph is a cube ("cube", d) or a glued
# chain ("glued", d, n)
_SAMPLED_CASES = (
    (("cube", 3), 1, True, 2), (("cube", 4), 2, True, 3),
    (("cube", 5), 3, False, 0), (("glued", 5, 2), 3, False, 7),
    (("glued", 4, 2), 2, True, 11), (("cube", 6), 3, True, 5),
    (("glued", 6, 2), 3, False, 1), (("cube", 6), 4, False, 9),
)


def test_sampled_instances_stream_pinned():
    # recorded with the sorted()-per-pair generator, before pairs were
    # normalized by a compare; every sampled report rests on this stream
    h = hashlib.sha256()
    for name, k, strong, seed in _SAMPLED_CASES:
        g = (cube_graph(name[1]) if name[0] == "cube"
             else glued_cubes(*name[1:]).graph())
        for inst in sampled_instances(sorted(g.vertices()), k, strong,
                                      20000, seed):
            h.update(json.dumps(inst).encode())
            h.update(b"\n")
    assert h.hexdigest() == (
        "43232497025b4959d6b7408bc5a7543b41c8e0ae9c0a68befaa852ea8a127c5a")


def _sample_instances_reference(ids, k, strong, n, seed):
    """The sampled stream as `random.Random(seed).sample` draws it, one
    call per instance."""
    sample = random.Random(seed).sample
    size = 2 * k + (1 if strong else 0)
    lead = 1 if strong else 0
    for _ in range(n):
        chosen = sample(ids, size)
        ends = iter(chosen[lead:])
        pr = sorted(tuple(sorted(p)) for p in zip(ends, ends))
        yield (tuple(sorted(chosen)), tuple(chosen[:lead]), tuple(pr))


@hst.composite
def _sample_case(draw):
    """(ids, size, count, seed, per_batch): ids 1-130 distinct vertex
    ids, sorted but with gaps, and a sample size of at most min(n, 9)."""
    n = draw(hst.integers(1, 130))
    gaps = draw(hst.lists(hst.integers(1, 40), min_size=n, max_size=n))
    ids = list(itertools.accumulate(gaps))
    return (ids, draw(hst.integers(0, min(n, 9))), draw(hst.integers(0, 700)),
            draw(hst.integers(0, 2 ** 64)), draw(hst.integers(1, 300)))


@settings(max_examples=250, deadline=None, database=None)
@given(_sample_case())
def test_sampled_batches_match_random_sample(case):
    ids, size, count, seed, per_batch = case
    method = "pool" if len(ids) <= oracle._setsize(size) else "set"
    hypothesis.event(f"{method} method")
    rng = random.Random(seed)
    k, strong = divmod(size, 2)
    got = list(oracle._sampled_batches(ids, k, bool(strong), count, seed,
                                       per_batch))
    assert [len(b) for b in got] == [min(per_batch, count - i)
                                     for i in range(0, count, per_batch)]
    rows = [row for b in oracle._sample_rows(len(ids), size, count, seed,
                                             per_batch)
            for row in b.tolist()]
    assert [[ids[i] for i in row] for row in rows] \
        == [rng.sample(ids, size) for _ in range(count)]
    want = list(_sample_instances_reference(ids, k, bool(strong), count,
                                            seed))
    assert [b[i] for b in got for i in range(len(b))] == want
    assert list(sampled_instances(ids, k, bool(strong), count,
                                  seed)) == want


def test_sampled_batches_cover_both_methods():
    # Random.sample's cut-off between its methods, on either side: n = 21
    # and 85 run the pool, n = 22 and 86 the set, and n = 130 with k = 2
    # and a mostly rejected range test (b = 8 bits for 130 ids)
    for n, size in ((21, 5), (22, 5), (85, 9), (86, 9), (130, 4), (64, 7),
                    (8, 1), (1, 1), (96, 6)):
        ids = list(range(3, 3 * n + 3, 3))
        for seed in (0, 1, 2 ** 40):
            rng = random.Random(seed)
            want = [rng.sample(ids, size) for _ in range(2100)]
            got = [[ids[i] for i in row] for b in oracle._sample_rows(
                n, size, 2100, seed) for row in b.tolist()]
            assert got == want, (n, size, seed)


@settings(max_examples=100, deadline=None, database=None)
@given(hst.integers(1, 130), hst.integers(1, 9), hst.integers(0, 2 ** 32),
       hst.lists(hst.integers(0, 3000), max_size=6))
def test_pool_words_decode_across_block_ends(n, size, seed, cuts):
    # a block of words may end anywhere inside a sample: decoding it in
    # pieces with the step carried over gives the draws of one block
    size = min(size, n)
    words = oracle._read_words(random.Random(seed), 3000)
    whole = oracle._PoolDraws(n, size).decode(words)
    pieces = oracle._PoolDraws(n, size)
    ends = [0, *sorted(cuts), len(words)]
    got = [pieces.decode(words[a:b]) for a, b in zip(ends, ends[1:])]
    assert sum(map(list, got), []) == whole.tolist()


def test_sampled_batch_pickles():
    import pickle
    ids = sorted(glued_cubes(4, 2).graph().vertices())
    for k, strong in ((2, True), (2, False)):
        batch = next(oracle._sampled_batches(ids, k, strong, 300, seed=8))
        back = pickle.loads(pickle.dumps(batch))
        assert [back[i] for i in range(len(back))] == list(batch) \
            == [batch[i] for i in range(len(batch))]
        assert (back.rows == batch.rows).all() and back.lead == batch.lead


def test_sampled_campaign_keeps_stream_order():
    # Q_5 without vertex 0 (ids 1..31) is not 3-linked, but unlinked
    # samples are rare: the first one lies thousands of instances deep.
    # checked and witness as the one-sample-per-call generator gave them.
    g = cube_graph(5).without([0])
    for seed, checked, pairs in ((1, 10984, ((8, 14), (9, 10), (12, 24))),
                                 (2, 7867, ((1, 11), (3, 17), (5, 9)))):
        for jobs in (1, 2):
            v = verify_k_linked(g, 3, mode="sampled", samples=20000,
                                seed=seed, jobs=jobs)
            assert v.status == "counterexample"
            assert (v.instances_checked, v.witness.pairs) == (checked, pairs)
    with pytest.raises(ValueError, match="exhaustive"):
        verify_k_linked(cube_graph(4), 2, mode="sampled", symmetry=4)


def test_verify_k_linked_small():
    v = verify_k_linked(cube_graph(3), 2)
    assert v.status == "counterexample"
    assert v.witness is not None
    assert v.instances_checked <= 210
    v4 = verify_k_linked(cube_graph(4), 2)
    assert v4.status == "verified"
    assert v4.instances_checked == 3 * 1820
    assert v4.witness is None


def test_campaign_decided_by_complete_search(monkeypatch):
    """Greedy misses linkages that exist in this graph, so the campaign's
    verdict rests on _solve_dfs; it must match the reference oracle run
    over the same instance stream."""
    g = random_graph(random.Random(10), 10, 0.4)
    found = []
    dfs = oracle._solve_dfs

    def counted_dfs(*args):
        got = dfs(*args)
        found.append(got is not None)
        return got

    monkeypatch.setattr(oracle, "_solve_dfs", counted_dfs)
    v = verify_k_linked(g, 2)
    assert len(found) > 0 and any(found)
    checked, witness = 0, None
    for _, forb, pr in linked_instances(sorted(g.vertices()), 2, False):
        checked += 1
        if not naive_linked(g, pr, forb):
            witness = pr
            break
    assert v.instances_checked == checked
    if witness is None:
        assert v.status == "verified"
    else:
        assert v.status == "counterexample" and v.witness.pairs == witness


def test_symmetry_needs_the_cube_graph():
    # the orbit sweep enumerates ids 0..2^d - 1 of the d-cube, so any
    # other graph would be "verified" on instances that are not its own
    bicube = glued_cubes(4, 2).graph()
    q4 = cube_graph(4)
    swap = {0: 3, 3: 0}           # Q_4 with ids 0 and 3 exchanged
    relabelled = graph_from_edges(16, [(swap.get(u, u), swap.get(v, v))
                                       for u, v in q4.edges()])
    for g in (bicube, relabelled, q4.without([5]), cube_graph(3)):
        for verify in (verify_k_linked, verify_strongly_linked):
            with pytest.raises(ValueError, match="symmetry=4"):
                verify(g, 2, symmetry=4)
    assert verify_k_linked(q4, 2, symmetry=4).status == "verified"
    assert verify_strongly_linked(q4, 2, symmetry=4).status == "verified"


def test_symmetry_agrees_at_k_0():
    # no pairs: the empty subset (or one left-out vertex) is one orbit
    # whose labelled instances are the unreduced sweep's
    for d in (1, 3, 4):
        g = cube_graph(d)
        for verify in (verify_k_linked, verify_strongly_linked):
            reduced = verify(g, 0, symmetry=d)
            plain = verify(g, 0)
            assert reduced.status == plain.status == "verified"
            assert reduced.instances_checked == reduced.detail["orbits"] == 1
            assert reduced.detail["labelled_total"] == plain.instances_checked


def test_symmetry_counterexample_counts_cover_every_chunk(monkeypatch):
    # Q_4 is not 3-linked and the first chunk already holds the witness;
    # the orbit counts must still cover the chunks the campaign never read
    monkeypatch.setattr(cubelink.symmetry, "_CHUNK", 7)
    v = verify_k_linked(cube_graph(4), 3, symmetry=4)
    assert v.status == "counterexample" and v.instances_checked == 15
    assert v.detail == {"orbits": 437, "group_order": 384,
                        "labelled_total": 120120}
    assert len(cubelink.symmetry.canonical_subsets(4, 6)[0]) > 7 * 2


def test_verify_sampled_deterministic():
    g = cube_graph(4)
    a = verify_strongly_linked(g, 2, mode="sampled", samples=500, seed=11)
    b = verify_strongly_linked(g, 2, mode="sampled", samples=500, seed=11)
    assert a.status == b.status == "sampled_pass"
    assert a.instances_checked == b.instances_checked == 500
    assert a.seed == 11
    with pytest.raises(ValueError):
        verify_k_linked(g, 2, mode="bogus")


def _report_without_elapsed(verdict: Verdict) -> dict:
    out = verdict.to_json_dict()
    out.pop("elapsed_ms")
    return out


def test_parallel_matches_serial_verdict():
    g = cube_graph(3)
    s = verify_k_linked(g, 2, jobs=1)
    p = verify_k_linked(g, 2, jobs=2)
    assert s.status == p.status == "counterexample"
    assert _report_without_elapsed(s) == _report_without_elapsed(p)
    assert p.instances_checked == 3
    g4 = cube_graph(4)
    s4 = verify_k_linked(g4, 2, jobs=2)
    assert s4.status == "verified"
    assert s4.instances_checked == 5460
    assert _report_without_elapsed(s4) == _report_without_elapsed(
        verify_k_linked(g4, 2, jobs=1))


def test_campaign_reads_stream_lazily_and_stops_at_first_witness():
    drawn = []

    def stream():
        for i in itertools.count():
            drawn.append(i)
            yield i

    def check(inst, tally):
        if inst % 500 == 499:
            return ("odd one", inst)
        tally["pass"] = tally.get("pass", 0) + 1
        return None

    run = campaign(batched(stream()), check)
    assert run.witness == ("odd one", 499)
    assert run.checked == 500
    assert run.tally == {"pass": 499}
    assert run.branches == {}
    # read up to the end of the witness's batch, and no further
    assert len(drawn) == -(-500 // CAMPAIGN_BATCH) * CAMPAIGN_BATCH
    with pytest.raises(ValueError):
        campaign(batched(()), check, jobs=0)


def test_campaign_sums_router_branches_over_batches(monkeypatch):
    outer: dict = {}
    monkeypatch.setattr(linker, "BRANCH_COUNTER", outer)

    def check(inst, tally):
        linker._mark("step")
        return None

    run = campaign(batched(range(2 * CAMPAIGN_BATCH + 50)), check)
    assert run.checked == 2 * CAMPAIGN_BATCH + 50
    assert run.witness is None
    assert run.branches == {"step": 2 * CAMPAIGN_BATCH + 50}
    assert linker.BRANCH_COUNTER is outer and outer == {}


def test_elapsed_ms_covers_canonicalization(monkeypatch):
    canonical = cubelink.symmetry.canonical_marked_instances

    def slow_canonical(*args):
        time.sleep(0.2)
        return canonical(*args)

    monkeypatch.setattr(cubelink.symmetry, "canonical_marked_instances",
                        slow_canonical)
    v = verify_k_linked(cube_graph(3), 2, symmetry=3)
    assert v.status == "counterexample"
    assert v.elapsed_ms >= 200


def test_enumerate_separators_q3():
    g = cube_graph(3)
    seps = enumerate_separators(g, 3)
    want = sorted(tuple(sorted(bits(g.adj[v]))) for v in range(8))
    assert sorted(seps) == want
    for sep in seps:
        for u, v in itertools.combinations(sep, 2):
            assert not g.has_edge(u, v)
    with pytest.raises(ValueError):
        enumerate_separators(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), 3)


def test_contains_k23():
    assert k23_witness(cube_graph(3)) is None
    k23 = graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert k23_witness(k23) == (0, 1, (2, 3, 4))
    near = graph_from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])
    assert k23_witness(near) is None
    # the first pair sharing three neighbours, with its three least ones
    k24 = graph_from_edges(6, [(u, v) for u in (2, 5) for v in (0, 1, 3, 4)])
    assert k23_witness(k24) == (2, 5, (0, 1, 3))


def test_short_distance_pairs():
    g = cube_graph(3)
    face = g.restrict(mask_of([0, 1, 2, 3]))  # the 2-face x3=0
    x = [0, 3]
    y = [(0, 3), (1, 2)]
    got = short_distance_pairs(face, x, y)
    # 0-3 must route through 1 or 2 (not in X, so valid); 1-2 through 0 or 3,
    # both in X and not endpoints of that pair, so invalid
    assert got == {0}
    with pytest.raises(ValueError):
        short_distance_pairs(face, [7], y)


def test_problem_json_round_trip_shape():
    g = cube_graph(2)
    p = LinkageProblem(g, ((0, 3),), forbidden=frozenset({2}))
    d = p.to_json_dict()
    assert d["pairs"] == [[0, 3]] and d["forbidden"] == [2]
    assert d["graph"][0] == [1, 2]
    spec = {"kind": "cube", "dim": 2}
    assert p.to_json_dict(graph_repr=spec)["graph"] is spec


def _pinned_oracle_cases():
    """3,000 seeded oracle problems: random graphs on 4-40 vertices, Q_3-Q_6
    and bicube_4/5, k = 1-4 pairs, with and without forbidden vertices,
    each with a random `allowed` mask for the BFS stage."""
    rng = random.Random(20260907)
    fixed = [cube_graph(d) for d in (3, 4, 5, 6)]
    fixed += [glued_cubes(4, 2).graph(), glued_cubes(5, 2).graph()]
    for i in range(3000):
        if i % 3 == 0:
            g = fixed[(i // 3) % len(fixed)]
        else:
            g = random_graph(rng, rng.randrange(4, 41), rng.uniform(0.05, 0.5))
        made = random_problem(rng, g, rng.randrange(1, 5),
                              forbid=rng.choice((0, 0, 1, 2)))
        if made is None:
            continue
        pairs, forbidden = made
        allowed = rng.getrandbits(g.n) & g.active
        yield g, pairs, mask_of(forbidden), allowed


def _oracle_digest() -> str:
    h = hashlib.sha256()
    for g, pairs, forbidden, allowed in _pinned_oracle_cases():
        try:
            got = oracle._solve_core(g.adj, g.active, pairs, forbidden,
                                     10 ** 4)
        except SearchBudgetExceeded:
            got = "budget"
        s, t = pairs[0]
        row = [got, oracle._bfs_path(g.adj, s, t, allowed),
               oracle._reach_ok(g.adj, s, t, allowed | (1 << t))]
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_solve_core_output_pinned():
    # recorded with the earlier fast path (bits()-generator BFS with a
    # parent dict, fast-no before greedy), which the layer-mask BFS replaced
    assert _oracle_digest() == (
        "7a9feb92910b5bf37a09ebb04a5bbdc0e48f8ad227c1a5432bb76c2b2b09855f")


@hst.composite
def _bfs_case(draw):
    n = draw(hst.integers(2, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, on in zip(pairs, draw(hst.lists(
        hst.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    g = graph_from_edges(n, edges)
    s = draw(hst.integers(0, n - 1))
    t = draw(hst.integers(0, n - 1))
    return g, s, t, draw(hst.integers(0, (1 << n) - 1))


@settings(max_examples=400, deadline=None, database=None)
@given(_bfs_case())
def test_bfs_path_is_least_id_shortest_path(case):
    g, s, t, allowed = case
    path = oracle._bfs_path(g.adj, s, t, allowed)
    inner = allowed & ~((1 << s) | (1 << t))
    dist = queue_bfs(g, s, inner | (1 << t))
    if t not in dist:
        assert path is None
        return
    assert path is not None and len(path) == dist[t] + 1
    assert path[0] == s and path[-1] == t
    assert len(set(path)) == len(path)
    assert all((inner >> v) & 1 for v in path[1:-1])
    # the predecessor of each vertex is its least-id neighbour one layer
    # closer to s (s itself is layer 0)
    near = queue_bfs(g, s, inner)
    for i in range(1, len(path)):
        layer = [u for u in bits(g.adj[path[i]]) if near.get(u) == i - 1]
        assert path[i - 1] == min(layer)


@settings(max_examples=400, deadline=None, database=None)
@given(_bfs_case())
def test_reach_ok_matches_queue_bfs(case):
    g, s, t, allowed = case
    allowed |= 1 << t
    assert oracle._reach_ok(g.adj, s, t, allowed) == (
        t in queue_bfs(g, s, allowed))


def test_fast_no_rejections_never_reach_the_dfs(monkeypatch):
    """Greedy runs before fast-no; an instance fast-no rejects must still
    be answered None without the complete search."""
    dfs_calls = []
    dfs = oracle._solve_dfs

    def counted_dfs(*args):
        dfs_calls.append(args)
        return dfs(*args)

    monkeypatch.setattr(oracle, "_solve_dfs", counted_dfs)
    # vertex 0 of Q_3 has neighbours 1, 2, 4: two terminals and a
    # forbidden vertex leave it no way out
    p = LinkageProblem(cube_graph(3), ((0, 7), (1, 2)), frozenset({4}))
    assert solve_linkage(p) is None and dfs_calls == []
    rng = random.Random(515)
    rejected = searched = 0
    while rejected < 300:
        g = random_graph(rng, rng.randrange(5, 13), rng.uniform(0.15, 0.45))
        made = random_problem(rng, g, rng.randrange(1, 4),
                              forbid=rng.randrange(0, 3))
        if made is None:
            continue
        pairs, forbidden = made
        terms = mask_of(v for pr in pairs for v in pr)
        open_mask = g.active & ~mask_of(forbidden) & ~terms
        blocked = any(t not in queue_bfs(g, s, open_mask | (1 << t))
                      for s, t in pairs)
        before = len(dfs_calls)
        got = solve_linkage(LinkageProblem(g, pairs, forbidden))
        if blocked:
            rejected += 1
            assert got is None and len(dfs_calls) == before
        else:
            searched += len(dfs_calls) > before
    assert searched > 0        # the counter does see the search run


# -- the batch greedy prefilter -------------------------------------------------


def _scalar_greedy(g, pairs, forbidden_mask):
    k = len(pairs)
    return any(oracle._greedy_attempt(g.adj, g.active, pairs, forbidden_mask,
                                      order) is not None
               for order in (tuple(range(k)), tuple(reversed(range(k)))))


def _prefilter_graphs():
    """Q_3-Q_6, bicube_4/5 and seeded random graphs on 4-64 vertices, a
    third of them on exactly 64 so that vertex 63 (the top bit) occurs."""
    yield from (cube_graph(d) for d in (3, 4, 5, 6))
    yield glued_cubes(4, 2).graph()
    yield glued_cubes(5, 2).graph()
    rng = random.Random(20261018)
    for i in range(90):
        n = 64 if i % 3 == 0 else rng.randrange(4, 65)
        yield random_graph(rng, n, rng.uniform(3 / n, 0.35))


def test_prefilter_matches_scalar_greedy():
    rng = random.Random(818)
    rows = passed = top_bit = 0
    for g in _prefilter_graphs():
        k, forbid = rng.randrange(1, 5), rng.randrange(0, 3)
        probs = [made for made in (random_problem(rng, g, k, forbid)
                                   for _ in range(120)) if made is not None]
        if not probs:
            continue
        batch = [((), tuple(sorted(f)), pr) for pr, f in probs]
        check = oracle._LinkedCheck(g.adj, g.active, 10 ** 4)
        got = check.passes(instance_batch(batch)).tolist()
        want = [_scalar_greedy(g, pr, mask_of(f)) for pr, f in probs]
        assert got == want
        rows += len(probs)
        passed += sum(want)
        top_bit += sum(63 in {v for p in pr for v in p} | f for pr, f in probs)
    assert rows > 8000 and 0 < passed < rows and top_bit > 0


def test_prefilter_paths_are_the_scalar_paths():
    # the batch BFS must hand later pairs exactly the vertices the scalar
    # greedy path used, so compare each path's interior, not only success
    import numpy as np
    rng = random.Random(19)
    for g in itertools.islice(_prefilter_graphs(), 40):
        ids = sorted(g.vertices())
        ends = [rng.sample(ids, 2) for _ in range(200)]
        allowed = [rng.getrandbits(g.n) & g.active for _ in ends]
        adj_arr, tables = oracle._byte_tables(g.adj)
        found, inner = oracle._bfs_rows(
            adj_arr, tables, np.array([s for s, _ in ends], dtype=np.uint64),
            np.array([t for _, t in ends], dtype=np.uint64),
            np.array(allowed, dtype=np.uint64), True)
        for (s, t), a, f, m in zip(ends, allowed, found.tolist(),
                                   inner.tolist()):
            path = oracle._bfs_path(g.adj, s, t, a)
            assert f == (path is not None)
            if path is not None:
                assert m == mask_of(path[1:-1])


def _scalar_run(g, insts):
    """(checked, witness) of a plain _solve_core loop over `insts`."""
    for i, (subset, forb, pr) in enumerate(insts, 1):
        if oracle._solve_core(g.adj, g.active, pr, mask_of(forb),
                              10 ** 7) is None:
            return i, (subset, forb, pr)
    return len(insts), None


def test_prefilter_keeps_stream_order():
    """A batch holding prefilter passes, then an unlinked instance, then
    more instances stops where the scalar loop stops, with its witness;
    instances greedy misses go through the full solver on the way."""
    # the graph of test_campaign_decided_by_complete_search: greedy routes
    # most of its 630 2-pair instances, misses a few linked ones, and 75
    # are unlinked
    g = random_graph(random.Random(10), 10, 0.4)
    insts = list(linked_instances(sorted(g.vertices()), 2, False))
    check = oracle._LinkedCheck(g.adj, g.active, 10 ** 7)
    passed = check.passes(instance_batch(insts))
    linked = [_scalar_run(g, [inst])[1] is None for inst in insts]
    greedy = [inst for inst, p in zip(insts, passed) if p]
    missed = [inst for inst, p, ok in zip(insts, passed, linked)
              if ok and not p]
    unlinked = [inst for inst, ok in zip(insts, linked) if not ok]
    assert greedy and missed and unlinked
    rng = random.Random(4)
    for at in (0, 7, CAMPAIGN_BATCH - 1, CAMPAIGN_BATCH, 2 * CAMPAIGN_BATCH
               + 3):
        stream = [rng.choice(greedy + missed) for _ in range(at)]
        stream += [unlinked[at % len(unlinked)]]
        stream += [rng.choice(insts) for _ in range(CAMPAIGN_BATCH)]
        run = campaign(map(instance_batch, batched(stream)), check)
        assert (run.checked, run.witness) == _scalar_run(g, stream) \
            == (at + 1, unlinked[at % len(unlinked)])
    stream = [rng.choice(greedy + missed) for _ in range(2500)]
    run = campaign(map(instance_batch, batched(stream)), check, jobs=2)
    assert (run.checked, run.witness) == _scalar_run(g, stream) == (2500, None)


def test_large_graphs_skip_the_prefilter():
    g = glued_cubes(6, 2).graph()              # 96 vertices
    assert g.n > 64
    ids = sorted(g.vertices())
    check = oracle._LinkedCheck(g.adj, g.active, 10 ** 7)
    insts = list(sampled_instances(ids, 3, False, 1500, seed=6))
    assert check.passes(instance_batch(insts)) is None
    v = verify_k_linked(g, 3, mode="sampled", samples=1500, seed=6)
    checked, witness = _scalar_run(g, insts)
    assert v.status == "sampled_pass" and witness is None
    assert v.instances_checked == checked == 1500
