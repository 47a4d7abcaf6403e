"""Graph toolkit behaviour: masks, paths, flow-based connectivity."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import brute_min_vertex_cut, has_set_path, random_graph
from cubelink.cube import cube_graph
from cubelink.graphs import (Graph, bfs_distances, bits, components,
                             connected_within, disjoint_paths,
                             graph_from_edges, local_connectivity, mask_of,
                             reachable_mask, shortest_path,
                             vertex_connectivity)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n)
                                for j in range(i + 1, n)])


def test_mask_round_trip():
    vs = [0, 3, 7, 11]
    assert sorted(bits(mask_of(vs))) == vs


def test_graph_rejects_loops_and_stray_edges():
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00), 0b11)               # loop at 0
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b01), 0b01)               # edge to inactive vertex


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b010, 0b100, 0b000), 0b111)     # one-way edges 0->1->2
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b110, 0b001, 0b000), 0b111)     # 2 misses its edge to 0
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b000, 0b001, 0b011), 0b111)     # 0 misses 1 and 2
    with pytest.raises(ValueError):
        Graph(3, (0b010, 0b001), 0b111)            # a row per vertex


def test_restrict_keeps_parent_ids():
    g = cube_graph(3)
    sub = g.restrict(mask_of([0, 1, 3, 7]))
    assert sorted(sub.vertices()) == [0, 1, 3, 7]
    assert sub.has_edge(0, 1) and sub.has_edge(1, 3) and sub.has_edge(3, 7)
    assert not sub.has_edge(0, 7)
    assert sub.n == g.n


def test_without_drops_vertices():
    g = cycle_graph(5)
    h = g.without([2])
    assert sorted(h.vertices()) == [0, 1, 3, 4]
    assert not connected_within(h, mask_of([1, 3]))


def test_reachable_mask_respects_allowed():
    g = path_graph(6)
    assert reachable_mask(g, 1 << 0) == mask_of(range(6))
    assert reachable_mask(g, 1 << 0, mask_of([0, 1, 2])) == mask_of([0, 1, 2])
    # seed outside allowed contributes nothing
    assert reachable_mask(g, 1 << 5, mask_of([0, 1])) == 0


def test_components_partition():
    g = graph_from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    comps = components(g)
    assert sorted(sorted(bits(c)) for c in comps) == [[0, 1, 2], [3, 4],
                                                      [5, 6]]


def test_bfs_distances_on_cycle():
    g = cycle_graph(6)
    dist = bfs_distances(g, 1 << 0)
    assert [dist[v] for v in range(6)] == [0, 1, 2, 3, 2, 1]


def test_shortest_path_endpoints_and_minimality():
    g = cube_graph(4)
    rng = random.Random(1)
    for _ in range(100):
        s = rng.randrange(16)
        t = rng.randrange(16)
        p = shortest_path(g, s, 1 << t)
        assert p[0] == s and p[-1] == t
        assert len(p) == bin(s ^ t).count("1") + 1
        for u, v in zip(p, p[1:]):
            assert g.has_edge(u, v)


def test_shortest_path_is_lexicographically_least():
    g = cube_graph(3)
    # 0 -> 7 has six shortest paths; the least visits 1 then 3
    assert shortest_path(g, 0, 1 << 7) == [0, 1, 3, 7]
    # src inside the target set: trivial path
    assert shortest_path(g, 5, mask_of([5, 0])) == [5]
    # src outside allowed: no path
    assert shortest_path(g, 0, 1 << 7, allowed=mask_of([1, 7])) is None


def test_disjoint_paths_count_matches_connectivity():
    g = cube_graph(3)
    n0, ps = disjoint_paths(g, sorted(bits(g.adj[0])),
                            sorted(bits(g.adj[7])))
    assert n0 == 3 and len(ps) == 3
    seen = set()
    for p in ps:
        assert not seen & set(p)
        seen |= set(p)
    # a vertex in both sets yields the trivial path
    n1, ps1 = disjoint_paths(g, [1, 2], [1, 4], need=1)
    assert n1 >= 1 and [1] in ps1


def test_vertex_connectivity_known_values():
    assert vertex_connectivity(path_graph(5)) == 1
    assert vertex_connectivity(cycle_graph(6)) == 2
    assert vertex_connectivity(complete_graph(5)) == 4
    for d in (2, 3, 4):
        assert vertex_connectivity(cube_graph(d)) == d


def test_local_connectivity_separated_sets():
    g = path_graph(7)
    assert local_connectivity(g, 0, 6) == 1
    g2 = cube_graph(3)
    assert local_connectivity(g2, 0, 7) == 3
    with pytest.raises(ValueError):
        local_connectivity(g, 0, 1)                # adjacent pair


def test_disconnected_graph_connectivity_zero():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(g) == 0


@hst.composite
def _flow_case(draw):
    n = draw(hst.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e, on in zip(pairs, draw(hst.lists(
        hst.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    g = graph_from_edges(n, edges)
    ids = hst.lists(hst.integers(0, n - 1), max_size=n)
    need = draw(hst.none() | hst.integers(0, n + 1))
    return g, draw(ids), draw(ids), need


def _check_fan(g, a, b, count, paths):
    assert count == len(paths)
    used = set()
    for p in paths:
        assert p[0] in a and p[-1] in b
        assert len(set(p)) == len(p) and not used & set(p)
        used |= set(p)
        for u, v in zip(p, p[1:]):
            assert g.has_edge(u, v)


@settings(max_examples=300, deadline=None, database=None)
@given(_flow_case())
def test_disjoint_paths_match_brute_min_separator(case):
    g, a, b, need = case
    count, paths = disjoint_paths(g, a, b, need=need)
    _check_fan(g, set(a), set(b), count, paths)
    best = brute_min_vertex_cut(g, a, b)
    assert count == (best if need is None else min(need, best))


@settings(max_examples=200, deadline=None, database=None)
@given(_flow_case(), hst.integers(0, 10 ** 6))
def test_local_connectivity_matches_brute_separator(case, pick):
    g = case[0]
    apart = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if not g.has_edge(u, v)]
    if not apart:
        return
    u, v = apart[pick % len(apart)]
    inner = [w for w in range(g.n) if w not in (u, v)]
    best = next(size for size in range(len(inner) + 1)
                for cut in itertools.combinations(inner, size)
                if not has_set_path(g, 1 << u, 1 << v, mask_of(cut)))
    assert local_connectivity(g, u, v) == best


def _pinned_flow_cases():
    """2,400 seeded disjoint_paths calls: random graphs on 2-30 vertices
    and Q_3-Q_6, random terminal sets, with and without `need`."""
    rng = random.Random(20201)
    for i in range(2400):
        if i % 6 == 0:
            g = cube_graph(3 + (i // 6) % 4)
        else:
            g = random_graph(rng, rng.randrange(2, 31), rng.random())
        a = rng.sample(range(g.n), rng.randrange(1, min(g.n, 9) + 1))
        b = rng.sample(range(g.n), rng.randrange(1, min(g.n, 9) + 1))
        need = None if rng.random() < 0.5 else rng.randrange(0, 8)
        yield g, a, b, need


def _flow_digest() -> str:
    h = hashlib.sha256()
    for g, a, b, need in _pinned_flow_cases():
        h.update(json.dumps(disjoint_paths(g, a, b, need=need)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_disjoint_paths_output_pinned():
    # recorded with the explicit node-split network (one edge list per
    # split node, built ascending) that the implicit residual replaced
    assert _flow_digest() == (
        "4f4370c7c5b5a2a298c0b75f5f1a29c6b9fe74c7924e1eecad5890d942b94041")
