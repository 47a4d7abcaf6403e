"""Acceptance campaign: thirteen checks covering every quantitative claim
the library is built around, at dimensions a desk machine can enumerate.

Each test is one criterion and prints a one-line summary of the evidence
(run with -s to see them).  Three sweeps have a full exhaustive form that
takes tens of minutes; by default they run a seeded sampled form, and
setting ACCEPTANCE_FULL=1 switches them to the complete enumeration.  The
Q_6 sweeps up to symmetry (criteria 12 and 13) are complete and always
run."""

import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest

import cubelink.symmetry
from conftest import brute_min_vertex_cut, linked_instances, naive_linked, \
    random_graph, random_problem
from cubelink.cli import main
from cubelink.complexes import (
    antistar,
    technical_lemma_check,
    vertex_star,
)
from cubelink.cube import associated_counts_bulk, associated_pairs, \
    cube_graph
from cubelink.generators import cube_boundary, glued_cubes, star_instance
from cubelink.graphs import bits, mask_of, vertex_connectivity
from cubelink.linker import (
    ConfigDFRefusal,
    StarProblem,
    detect_config_dF,
    link_in_polytope,
    link_in_star,
    strong_link_even,
)
from cubelink.oracle import (
    LinkageProblem,
    contains_k23,
    enumerate_separators,
    menger_paths,
    pairings,
    solve_linkage,
    verify_k_linked,
    verify_strongly_linked,
)

FULL = os.environ.get("ACCEPTANCE_FULL") == "1"


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_01_q3_fails_only_on_squares():
    """Q_3 is not 2-linked, and every failing instance puts all four
    terminals on one 2-face (crossed along its diagonals)."""
    t0 = time.perf_counter()
    g = cube_graph(3)
    v = verify_k_linked(g, 2)
    assert v.status == "counterexample"
    failures = checked = 0
    for subset, _, pr in linked_instances(range(8), 2, False):
        checked += 1
        linked = solve_linkage(LinkageProblem(g, pr)) is not None
        span = (subset[0] ^ subset[1]) | (subset[0] ^ subset[2]) \
            | (subset[0] ^ subset[3])
        square = span.bit_count() == 2        # the four span a 2-face
        crossed = square and all((a ^ b).bit_count() == 2 for a, b in pr)
        assert linked == (not crossed)
        if not linked:
            failures += 1
            assert square
    elapsed = time.perf_counter() - t0
    assert checked == 210 and failures > 0
    assert elapsed < 1.0
    report(f"criterion 1: {checked} instances, {failures} failures, "
           f"all on squares, {elapsed:.2f}s")


def test_criterion_02_q4_strongly_2_linked():
    """Q_4 is strongly 2-linked over all labelled instances."""
    v = verify_strongly_linked(cube_graph(4), 2)
    assert v.status == "verified"
    assert v.instances_checked == 65520
    assert v.elapsed_ms < 60_000
    report(f"criterion 2: verified {v.instances_checked} instances, "
           f"{v.elapsed_ms}ms")


def test_criterion_03_q5_3_linked_symmetry_and_sampled():
    """Q_5 is 3-linked: exhaustive up to symmetry with the orbit count
    reported, plus the seeded million-sample fallback."""
    g = cube_graph(5)
    v = verify_k_linked(g, 3, symmetry=5)
    assert v.status == "verified"
    assert v.detail["orbits"] == v.instances_checked == 4866
    assert v.detail["group_order"] == 3840
    assert v.detail["labelled_total"] == math.comb(32, 6) * 15
    assert v.elapsed_ms < 30 * 60_000
    s = verify_k_linked(g, 3, mode="sampled", samples=10**6, seed=0)
    assert s.status == "sampled_pass"
    assert s.instances_checked == 10**6
    assert s.elapsed_ms < 120_000
    report(f"criterion 3: {v.detail['orbits']} orbits verified in "
           f"{v.elapsed_ms}ms; 10^6 samples passed in {s.elapsed_ms}ms")


def test_criterion_04_associated_pairs_bound():
    """|associated pairs of Z| <= |Z| - 1 for every nonempty vertex set of
    Q_3 and Q_4 and a million random sets each in Q_5, Q_6."""
    for d in (3, 4):
        masks = np.arange(1, 1 << (1 << d), dtype=np.uint64)
        counts = associated_counts_bulk(d, masks)
        sizes = np.bitwise_count(masks).astype(np.int64)
        assert int(np.count_nonzero(counts > sizes - 1)) == 0
    rng = np.random.default_rng(0)
    totals = {}
    for d in (5, 6):
        if d == 5:
            masks = rng.integers(1, 1 << 32, size=10**6, dtype=np.uint64)
        else:
            lo = rng.integers(0, 1 << 32, size=10**6, dtype=np.uint64)
            hi = rng.integers(0, 1 << 32, size=10**6, dtype=np.uint64)
            masks = (hi << np.uint64(32)) | lo
            masks[masks == 0] = 1
        counts = associated_counts_bulk(d, masks)
        sizes = np.bitwise_count(masks).astype(np.int64)
        assert int(np.count_nonzero(counts > sizes - 1)) == 0
        totals[d] = len(masks)
    # spot-check the vectorized counter against the direct definition
    sr = random.Random(1)
    for d in (3, 4, 5):
        for _ in range(50):
            z = sr.sample(range(1 << d), sr.randrange(1, 1 << d))
            m = np.array([sum(1 << v for v in z)], dtype=np.uint64)
            assert int(associated_counts_bulk(d, m)[0]) == \
                len(associated_pairs(d, z))
    report(f"criterion 4: 255 + 65535 exhaustive, "
           f"{totals[5]} + {totals[6]} random sets, zero violations")


def test_criterion_05_small_separators_independent():
    """Every size-d separator of Q_d is an independent set (d = 3, 4)."""
    for d, cand in ((3, math.comb(8, 3)), (4, math.comb(16, 4))):
        g = cube_graph(d)
        seps = enumerate_separators(g, d)
        for sep in seps:
            for u, v in itertools.combinations(sep, 2):
                assert not g.has_edge(u, v)
        report(f"criterion 5: d={d}, {cand} candidates, "
               f"{len(seps)} separators, all independent")


def test_criterion_06_no_k23():
    """No K_{2,3}: cubes Q_3..Q_5 and the glued bicubes d = 3, 4."""
    graphs = {f"Q_{d}": cube_graph(d) for d in (3, 4, 5)}
    graphs["bicube_3"] = glued_cubes(3, 2).graph()
    graphs["bicube_4"] = glued_cubes(4, 2).graph()
    for name, g in graphs.items():
        assert not contains_k23(g), name
    report(f"criterion 6: no K_23 in {', '.join(graphs)}")


def _star_iff_campaign(instances):
    q5 = cube_boundary(5)
    star = star_instance(q5, 0).complex
    g = star.graph()
    linked = refused = 0
    for pr in instances:
        x = [v for p in pr for v in p]
        det = detect_config_dF(star, x, pr, 0)
        res = link_in_star(StarProblem(star, 0, pr))
        ok = solve_linkage(LinkageProblem(g, pr)) is not None
        if ok:
            linked += 1
            assert det is None
            assert not isinstance(res, ConfigDFRefusal)
        else:
            refused += 1
            assert det is not None
            assert isinstance(res, ConfigDFRefusal)
    return linked, refused


def test_criterion_07_star_blocking_iff():
    """In the star of a Q_5 vertex, the oracle, the blocking-pattern
    detector, and the constructive router agree on every instance."""
    star = star_instance(cube_boundary(5), 0).complex
    others = sorted(v for v in star.vertex_ids if v)
    assert len(others) == 30
    t0 = time.perf_counter()
    if FULL:
        def gen():
            for five in itertools.combinations(others, 5):
                for mate_i in range(5):
                    mate = five[mate_i]
                    rest = tuple(v for j, v in enumerate(five) if j != mate_i)
                    for pr in pairings(rest):
                        yield ((0, mate),) + pr
        linked, refused = _star_iff_campaign(gen())
        total = math.comb(30, 5) * 15
        assert linked + refused == total
        # one trapped shape per facet around the centre, three pairings each
        assert refused == 15
        assert time.perf_counter() - t0 < 3600
    else:
        rng = random.Random(0)
        def gen():
            for _ in range(10**5):
                chosen = rng.sample(others, 5)
                prs = list(pairings(tuple(chosen[1:])))
                yield ((0, chosen[0]),) + prs[rng.randrange(len(prs))]
            # blocked shapes are a 15-in-2.1M event, so sampling never sees
            # one; walk the refusal side explicitly
            for f in star.facets():
                ch = star.chart(f)
                t1 = ch.opposite_vertex(0)
                g = star.graph()
                nbrs = tuple(sorted(bits(
                    g.adj[t1] & mask_of(star.face_vertices(f)))))
                for pr in pairings(nbrs):
                    yield ((0, t1),) + pr
        linked, refused = _star_iff_campaign(gen())
        assert linked + refused == 10**5 + 15
        assert refused == 15
        assert time.perf_counter() - t0 < 300
    elapsed = time.perf_counter() - t0
    report(f"criterion 7 ({'full' if FULL else 'sampled'}): "
           f"{linked} linked, {refused} refused, zero discrepancies, "
           f"{elapsed:.0f}s")


def test_criterion_08_glued_polytopes_linked_and_routed():
    """The glued bicubes are linked like cubes: d=4 strongly 2-linked
    exhaustively, d=5 3-linked on a million seeded samples, and the
    constructive router's output re-validates."""
    g4 = glued_cubes(4, 2)
    v = verify_strongly_linked(g4.graph(), 2)
    assert v.status == "verified" and v.instances_checked == 637560
    g5 = glued_cubes(5, 2)
    s = verify_k_linked(g5.graph(), 3, mode="sampled", samples=10**6,
                        seed=0)
    assert s.status == "sampled_pass" and s.instances_checked == 10**6
    ids = sorted(g5.vertex_ids)
    rng = random.Random(0)
    t0 = time.perf_counter()
    routed = 0
    # re-route seeded samples constructively; check_against runs inside
    for _ in range(10**6 if FULL else 20000):
        chosen = rng.sample(ids, 6)
        prs = list(pairings(tuple(chosen)))
        pr = prs[rng.randrange(len(prs))]
        link_in_polytope(g5, chosen, pr)
        routed += 1
    elapsed = time.perf_counter() - t0
    report(f"criterion 8: bicube4 verified {v.instances_checked}; "
           f"bicube5 {s.instances_checked} samples; {routed} routings "
           f"re-validated in {elapsed:.0f}s")


def _even_campaign(c, instances):
    ok = 0
    for x, pr, avoid in instances:
        lk = strong_link_even(c, x, pr, avoid)
        assert all(avoid not in path for path in lk.paths)
        ok += 1
    return ok


def test_criterion_09_even_construction_avoids_marked_vertex():
    """The even-dimension construction emits valid linkages that avoid the
    unpaired marked vertex on Q_4 (full campaign) and the glued bicube."""
    q4 = cube_boundary(4)
    t0 = time.perf_counter()
    done = 0
    for subset, forb, pr in linked_instances(range(16), 2, True):
        lk = strong_link_even(q4, subset, pr, forb[0])
        assert all(forb[0] not in path for path in lk.paths)
        done += 1
    assert done == 65520
    mid = time.perf_counter()
    g4 = glued_cubes(4, 2)
    ids = sorted(g4.vertex_ids)
    if FULL:
        gen = ((s, pr, f[0])
               for s, f, pr in linked_instances(ids, 2, True))
        total = _even_campaign(g4, gen)
        assert total == 637560
    else:
        rng = random.Random(0)
        def gen():
            for _ in range(20000):
                chosen = rng.sample(ids, 5)
                avoid = chosen[0]
                prs = list(pairings(tuple(chosen[1:])))
                yield chosen, prs[rng.randrange(len(prs))], avoid
        total = _even_campaign(g4, gen())
    elapsed = time.perf_counter() - t0
    report(f"criterion 9: Q4 full {done}; bicube4 "
           f"{'full' if FULL else 'sampled'} {total}; all valid and "
           f"avoiding, {elapsed:.0f}s (Q4 part {mid - t0:.0f}s)")


def test_criterion_10_antistar_connectivity_and_frames():
    """Antistars of facets are (d-2)-connected, and the frame report
    (connectivity, ridge-path avoidance, antistar reach) passes on every
    valid frame of every vertex star."""
    cases = [("Q4", cube_boundary(4)), ("Q5", cube_boundary(5)),
             ("bicube3", glued_cubes(3, 2)), ("bicube4", glued_cubes(4, 2)),
             ("bicube5", glued_cubes(5, 2))]
    for name, c in cases:
        d = c.dim + 1
        for f in c.facets():
            ag = antistar(c, f).graph()
            assert vertex_connectivity(ag) >= d - 2, (name, f)
    frames_total = 0
    for name, c in cases:
        if c.dim + 1 == 3:
            continue    # stars of 3-polytopes carry no usable frame
        for s1 in sorted(c.vertex_ids):
            st = vertex_star(c, s1)
            for s2 in sorted(st.vertex_ids):
                if s2 == s1:
                    continue
                for f12 in st.facets():
                    fv = set(st.face_vertices(f12))
                    if s2 not in fv:
                        continue
                    for f1 in st.facets():
                        v1 = set(st.face_vertices(f1))
                        if s1 in v1 and s2 not in v1:
                            rep = technical_lemma_check(st, s1, s2, f1, f12)
                            assert rep.ok, (name, s1, s2)
                            frames_total += 1
    report(f"criterion 10: antistars (d-2)-connected on "
           f"{len(cases)} complexes; {frames_total} frames all pass")


def test_criterion_11_oracle_self_consistency():
    """The search oracle matches a naive all-path-tuples enumerator on
    small random graphs, and the fan router's path count matches the
    brute-force minimum vertex cut."""
    rng = random.Random(424242)
    cases = 0
    while cases < 1200:
        n = rng.randrange(4, 15)
        g = random_graph(rng, n, rng.uniform(0.12, 0.5))
        made = random_problem(rng, g, rng.randrange(1, 4),
                              forbid=rng.randrange(0, 3))
        if made is None:
            continue
        pairs, forbidden = made
        got = solve_linkage(LinkageProblem(g, pairs, forbidden))
        assert (got is not None) == naive_linked(g, pairs, forbidden)
        cases += 1
    triples = 0
    while triples < 1000:
        n = rng.randrange(5, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.6))
        ids = sorted(bits(g.active))
        if len(ids) < 4:
            continue
        asz, bsz = rng.randrange(1, 4), rng.randrange(1, 4)
        if asz + bsz > len(ids):
            continue
        chosen = rng.sample(ids, asz + bsz)
        a, b = chosen[:asz], chosen[asz:]
        want = brute_min_vertex_cut(g, a, b)
        got = 0
        for k in range(1, min(asz, bsz) + 1):
            if menger_paths(g, a, b, k) is None:
                break
            got = k
        assert got == min(want, asz, bsz)
        triples += 1
    report(f"criterion 11: {cases} oracle-vs-naive cases, "
           f"{triples} menger-vs-cut triples, zero disagreements")


def _symmetry_sweep(capsys, monkeypatch, check: str, k: int):
    """`cubelink verify` of Q_6 up to symmetry: (exit code, verdict, the
    number of canonical subsets the sweep walked, wall seconds)."""
    walked = []
    walk = cubelink.symmetry.canonical_subsets

    def recorded(*args, **kwargs):
        got = walk(*args, **kwargs)
        walked.append(len(got[0]))
        return got

    monkeypatch.setattr(cubelink.symmetry, "canonical_subsets", recorded)
    t0 = time.perf_counter()
    code = main(["verify", "--kind", "cube", "--dim", "6", "--check", check,
                 "--k", str(k), "--symmetry"])
    wall = time.perf_counter() - t0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    return code, verdict, walked, wall


def test_criterion_12_q6_3_linked_symmetry(capsys, monkeypatch):
    """Q_6 is 3-linked: exhaustive up to symmetry, 37,462 orbits of 6
    terminals and a pairing standing for all C(64, 6) * 15 labelled ones."""
    code, v, walked, wall = _symmetry_sweep(capsys, monkeypatch,
                                            "k_linked", 3)
    assert code == 0 and v["status"] == "verified"
    assert v["checked"] == v["detail"]["orbits"] == 37462
    assert v["detail"]["group_order"] == 46080
    assert v["detail"]["labelled_total"] == 1124615520 \
        == math.comb(64, 6) * 15
    assert walked == [3253]
    report(f"criterion 12: {v['detail']['orbits']} orbits over "
           f"{walked[0]} subset orbits verified in {wall:.1f}s")


def test_criterion_13_q6_strongly_3_linked_symmetry(capsys, monkeypatch):
    """Q_6 is strongly 3-linked, the paper's claim at d = 6: every 7
    terminals, each choice of the vertex left out and every pairing of the
    rest, up to symmetry."""
    code, v, walked, wall = _symmetry_sweep(capsys, monkeypatch,
                                            "strongly_linked", 3)
    assert code == 0 and v["status"] == "verified"
    assert v["checked"] == v["detail"]["orbits"] == 1703441
    assert v["detail"]["labelled_total"] == 65227700160 \
        == math.comb(64, 7) * 7 * 15
    assert walked == [19735]
    report(f"criterion 13: {v['detail']['orbits']} orbits over "
           f"{walked[0]} subset orbits verified in {wall:.1f}s")
