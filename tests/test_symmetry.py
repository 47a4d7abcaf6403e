import hashlib
import itertools
import math
import random

import numpy as np
import pytest

import cubelink.symmetry
from cubelink.cube import cube_graph, distance
from cubelink.oracle import LinkageProblem, solve_linkage
from cubelink.symmetry import (
    _stabilizers,
    _zero_maps,
    canonical_marked_instances,
    canonical_subsets,
    group_order,
    group_tables,
)


# -- brute-force references ------------------------------------------------


def random_table(d: int, rng: random.Random) -> tuple[int, ...]:
    n = 1 << d
    perm = list(range(d))
    rng.shuffle(perm)
    flip = rng.randrange(n)
    out = []
    for v in range(n):
        w = 0
        for i in range(d):
            if (v >> i) & 1:
                w |= 1 << perm[i]
        out.append(w ^ flip)
    return tuple(out)


def apply_instance(table, inst):
    """Image of a (subset, forbidden, pairing) instance, re-normalized."""
    subset, forb, pr = inst
    nsub = tuple(sorted(table[v] for v in subset))
    nforb = tuple(sorted(table[v] for v in forb))
    npr = tuple(sorted(tuple(sorted((table[a], table[b]))) for a, b in pr))
    return nsub, nforb, npr


def canonical_instance(d: int, inst):
    """Lexicographically least image of the instance under the group.

    The least image's subset must contain vertex 0, so only flips sending
    some subset vertex to 0 can produce it; that cuts the flip factor from
    2^d to the subset size and keeps d=6 workable without full tables.
    """
    subset = inst[0]
    if not subset:
        return inst
    best = None
    n = 1 << d
    for perm in itertools.permutations(range(d)):
        moved = []
        for v in range(n):
            w = 0
            for i in range(d):
                if (v >> i) & 1:
                    w |= 1 << perm[i]
            moved.append(w)
        for v0 in subset:
            flip = moved[v0]
            table = [w ^ flip for w in moved]
            img = apply_instance(table, inst)
            if best is None or img < best:
                best = img
    return best


def _instances(d, k, strong):
    """canonical_marked_instances read to the end: its instance tuples in
    stream order, and its info."""
    batches, info = canonical_marked_instances(d, k, strong)
    return [inst for batch in batches for inst in batch], info


# -- tests -------------------------------------------------------------------


def test_group_order():
    assert [group_order(d) for d in (1, 2, 3, 4, 5)] == [2, 8, 48, 384, 3840]


def test_group_tables_are_the_full_automorphism_set():
    for d in (2, 3):
        tables = list(map(tuple, group_tables(d).tolist()))
        assert len(tables) == group_order(d)
        assert len(set(tables)) == len(tables)
        n = 1 << d
        assert tuple(range(n)) in tables
        g = cube_graph(d)
        for t in tables:
            assert sorted(t) == list(range(n))
            for u in range(n):
                for v in range(u + 1, n):
                    assert g.has_edge(u, v) == g.has_edge(t[u], t[v])
    # closure under composition
    tables = set(map(tuple, group_tables(3).tolist()))
    sample = random.Random(1).sample(sorted(tables), 12)
    for a in sample:
        for b in sample:
            assert tuple(a[b[v]] for v in range(8)) in tables


def test_random_table_is_seeded_group_member():
    tables = set(map(tuple, group_tables(3).tolist()))
    rng = random.Random(5)
    got = [random_table(3, rng) for _ in range(20)]
    assert all(t in tables for t in got)
    rng2 = random.Random(5)
    assert got == [random_table(3, rng2) for _ in range(20)]


def test_apply_instance_normalizes():
    t = tuple(v ^ 5 for v in range(8))
    inst = ((0, 3, 5, 6), (), ((0, 6), (3, 5)))
    sub, forb, pr = apply_instance(t, inst)
    assert sub == tuple(sorted(v ^ 5 for v in (0, 3, 5, 6)))
    assert forb == ()
    assert pr == tuple(sorted((tuple(sorted((a ^ 5, b ^ 5)))
                               for a, b in ((0, 6), (3, 5)))))


def test_canonical_instance_invariant_under_group():
    rng = random.Random(42)
    for d in (3, 4):
        ids = range(1 << d)
        for _ in range(40):
            chosen = rng.sample(ids, 4)
            pr = tuple(sorted((tuple(sorted(chosen[:2])),
                               tuple(sorted(chosen[2:])))))
            inst = (tuple(sorted(chosen)), (), pr)
            canon = canonical_instance(d, inst)
            assert canonical_instance(d, canon) == canon
            for _ in range(6):
                img = apply_instance(random_table(d, rng), inst)
                assert canonical_instance(d, img) == canon


def test_canonical_instance_preserves_linkedness():
    rng = random.Random(8)
    g = cube_graph(3)
    ids = range(8)
    for _ in range(60):
        chosen = rng.sample(ids, 4)
        pr = ((chosen[0], chosen[1]), (chosen[2], chosen[3]))
        inst = (tuple(sorted(chosen)), (), tuple(sorted(map(
            lambda p: tuple(sorted(p)), pr))))
        canon = canonical_instance(3, inst)
        a = solve_linkage(LinkageProblem(g, inst[2])) is not None
        b = solve_linkage(LinkageProblem(g, canon[2])) is not None
        assert a == b


def _brute_least_members(d, size):
    """The first subset of each orbit in itertools.combinations order."""
    n = 1 << d
    tables = group_tables(d).tolist()
    seen = set()
    least = []
    for combo in itertools.combinations(range(n), size):
        if combo in seen:
            continue
        least.append(combo)
        for t in tables:
            seen.add(tuple(sorted(t[v] for v in combo)))
    return least


def test_canonical_subsets_match_brute_orbits():
    for d, size in ((3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (4, 6),
                    (4, 7), (4, 8)):
        subs, tables = canonical_subsets(d, size)
        assert len(tables) == group_order(d)
        assert subs == _brute_least_members(d, size)
        assert subs == sorted(subs)
        # each returned subset really is the least in its orbit
        for sub in subs[:10]:
            least = min(tuple(sorted(t[v] for v in sub))
                        for t in tables.tolist())
            assert least == sub


def test_canonical_subsets_refuse_intransitive_tables():
    # the walk only visits subsets holding vertex 0, which is sound only
    # when every orbit reaches 0
    coordinate_perms = group_tables(3)[::8]        # flip 0: fixes vertex 0
    assert len(coordinate_perms) == 6
    assert (coordinate_perms[:, 0] == 0).all()
    for tables in (group_tables(3)[:1], coordinate_perms):
        for size in (0, 1, 3):
            with pytest.raises(ValueError, match="transitively"):
                canonical_subsets(3, size, tables)


def test_empty_subset_is_one_orbit():
    assert canonical_subsets(3, 0)[0] == [()]
    insts, info = _instances(3, 0, strong=False)
    assert insts == [((), (), ())]
    assert info == {"orbits": 1, "group_order": 48, "labelled_total": 1}
    insts, info = _instances(3, 0, strong=True)
    assert insts == [((0,), (0,), ())]
    assert info == {"orbits": 1, "group_order": 48, "labelled_total": 8}


def test_q5_orbit_structure():
    assert len(canonical_subsets(5, 5)[0]) == 131
    assert len(canonical_subsets(5, 6)[0]) == 472
    _, info = _instances(5, 2, strong=True)
    assert info == {"orbits": 1297, "group_order": 3840,
                    "labelled_total": 3020640}


def test_stabilizer_matches_set_scan():
    for d, count in ((4, 27), (5, 20)):
        tables = group_tables(d)
        assert tables[0].tolist() == list(range(1 << d))    # identity first
        to_zero, images = _zero_maps(tables)
        subs = canonical_subsets(d, 5, tables)[0][:count]
        assert len(subs) == count              # all 27 on Q_4
        owner, stab, perms = _stabilizers(to_zero, images, np.array(subs))
        assert owner.tolist() == sorted(owner.tolist())
        for i, subset in enumerate(subs):
            sset = set(subset)
            scan = [g for g, t in enumerate(tables.tolist())
                    if {t[v] for v in subset} == sset]
            mine = np.flatnonzero(owner == i)
            mine = mine[np.argsort(stab[mine])]
            assert stab[mine].tolist() == scan
            # a row moves position p to the position of its element's image
            assert perms[mine].tolist() == [
                [subset.index(tables[g][v]) for v in subset] for g in scan]


def test_instance_chunks_do_not_change_the_output(monkeypatch):
    runs = [(4, 2, True), (5, 2, False)]
    whole = [_instances(*run) for run in runs]
    monkeypatch.setattr(cubelink.symmetry, "_CHUNK", 7)
    assert [_instances(*run) for run in runs] == whole


def test_canonical_subsets_orbit_sizes_cover_everything():
    d, size = 3, 4
    subs, tables = canonical_subsets(d, size)
    covered = set()
    for sub in subs:
        for t in tables.tolist():
            covered.add(tuple(sorted(t[v] for v in sub)))
    assert len(covered) == math.comb(8, 4)


def test_canonical_marked_instances_small():
    # Q_3, k=1: pairs up to symmetry = one orbit per distance 1..3
    insts, info = _instances(3, 1, strong=False)
    assert info["orbits"] == len(insts) == 3
    assert info["group_order"] == 48
    assert info["labelled_total"] == math.comb(8, 2)
    dists = sorted(distance(a, b) for (_, _, ((a, b),)) in insts)
    assert dists == [1, 2, 3]


def test_canonical_marked_instances_refuse_more_than_15_terminals():
    # a shape's base-size code overflows int64 from 16 positions on; the
    # refusal comes before any walk (Q_4 with k = 8 is one 16-subset)
    with pytest.raises(ValueError, match="at most 15 marked vertices"):
        canonical_marked_instances(4, 8, strong=False)


def test_canonical_marked_instances_expand_to_labelled_total():
    insts, info = _instances(3, 2, strong=False)
    assert info["labelled_total"] == math.comb(8, 4) * 3
    tables = group_tables(3).tolist()
    labelled = set()
    for inst in insts:
        for t in tables:
            labelled.add(apply_instance(t, inst))
    assert len(labelled) == info["labelled_total"]
    # strong flavour: subset of 2k+1 with a marked leftover
    sinsts, sinfo = _instances(3, 1, strong=True)
    assert sinfo["labelled_total"] == math.comb(8, 3) * 3
    slabelled = set()
    for inst in sinsts:
        for t in tables:
            slabelled.add(apply_instance(t, inst))
    assert len(slabelled) == sinfo["labelled_total"]


ORBIT_WALK_DIGEST = \
    "52925ebf764e274f627c3228c11f6d1e9657e50e0bc5abe781636ffac11920ad"


def test_orbit_walk_output_pinned():
    """sha256 over the canonical subset lists and the canonical marked
    instances with their info, recorded on the mask walk that stored every
    subset as a combinations row and a uint64 mask."""
    h = hashlib.sha256()
    for d, sizes in ((3, range(2, 5)), (4, range(3, 9)), (5, range(4, 7))):
        for size in sizes:
            subs, _ = canonical_subsets(d, size)
            h.update(repr((d, size, subs)).encode())
    runs = [(d, k, strong) for d, ks in ((3, (1, 2)), (4, (1, 2)), (5, (2,)))
            for k in ks for strong in (False, True)] + [(5, 3, False)]
    for d, k, strong in runs:
        insts, info = _instances(d, k, strong)
        h.update(repr((d, k, strong, insts, sorted(info.items()))).encode())
    assert h.hexdigest() == ORBIT_WALK_DIGEST
