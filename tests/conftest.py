"""Shared helpers for the test suite: slow reference oracles written
independently of the library's search code, plus random-graph generators.
Everything here favours obviousness over speed."""

import collections
import itertools
import random

from cubelink.cube import CubeFace, OppositeFacetPair
from cubelink.graphs import (Graph, bits, graph_from_edges, mask_of,
                             reachable_mask)


def iter_simple_paths(g: Graph, s: int, t: int, banned):
    """Yield every simple s-t path whose inner vertices avoid `banned`."""
    banned = set(banned) - {s, t}
    stack = [s]
    seen = {s}

    def walk(v):
        if v == t:
            yield tuple(stack)
            return
        for w in bits(g.adj[v] & g.active):
            if w in seen or w in banned:
                continue
            seen.add(w)
            stack.append(w)
            yield from walk(w)
            stack.pop()
            seen.discard(w)

    if s == t:
        yield (s,)
        return
    yield from walk(s)


def queue_bfs(g: Graph, s: int, allowed: int) -> dict[int, int]:
    """Distance from s to every vertex it reaches through `allowed` (s
    itself counts whether or not it lies there), by a FIFO queue BFS that
    scans each vertex's neighbours by id."""
    dist = {s: 0}
    queue = collections.deque([s])
    while queue:
        v = queue.popleft()
        for w in range(g.n):
            if (g.adj[v] >> w) & 1 and (allowed >> w) & 1 and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def least_id_path(g: Graph, s: int, targets: int, allowed: int):
    """The path `shortest_path` documents, built from `queue_bfs`: None
    when s is outside `allowed` or no target in `allowed` is reached, [s]
    when s is a target, else a shortest path to the least target neighbour
    of the least vertex one step short of the nearest target that has
    one, each vertex preceded by its least-id neighbour one step nearer
    s."""
    if not (allowed >> s) & 1:
        return None
    if (targets >> s) & 1:
        return [s]
    dist = queue_bfs(g, s, allowed)
    ends = [t for t in dist if (targets >> t) & 1]
    if not ends:
        return None
    far = min(dist[t] for t in ends)
    v = min(u for u in dist if dist[u] == far - 1
            and any(g.has_edge(u, t) for t in ends))
    path = [min(t for t in ends if g.has_edge(v, t)), v]
    while path[-1] != s:
        path.append(min(u for u in dist if dist[u] == dist[path[-1]] - 1
                        and g.has_edge(u, path[-1])))
    return path[::-1]


def naive_linked(g: Graph, pairs, forbidden=frozenset()) -> bool:
    """Reference decision procedure: try every tuple of simple paths, one per
    pair, pairwise vertex-disjoint and avoiding the forbidden set."""
    pairs = [tuple(p) for p in pairs]
    terms = {v for p in pairs for v in p}

    def extend(i, used):
        if i == len(pairs):
            return True
        s, t = pairs[i]
        banned = set(forbidden) | used | (terms - {s, t})
        for path in iter_simple_paths(g, s, t, banned):
            if extend(i + 1, used | set(path)):
                return True
        return False

    return extend(0, set())


def has_set_path(g: Graph, amask: int, bmask: int, removed: int) -> bool:
    """Is some A-vertex joined to some B-vertex in g minus `removed`?"""
    allowed = g.active & ~removed
    frontier = amask & allowed
    if frontier & bmask:
        return True
    seen = frontier
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & allowed & ~seen
        if frontier & bmask:
            return True
        seen |= frontier
    return False


def brute_min_vertex_cut(g: Graph, a, b) -> int:
    """Smallest vertex set (any vertices allowed) whose removal leaves no
    A-B path.  Exponential; for small graphs only."""
    amask = mask_of(a)
    bmask = mask_of(b)
    ids = sorted(bits(g.active))
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            removed = sum(1 << v for v in combo)
            if not has_set_path(g, amask, bmask, removed):
                return size
    return len(ids)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return graph_from_edges(n, edges)


def random_problem(rng: random.Random, g: Graph, k: int, forbid=0):
    """Distinct terminal pairs plus an optional forbidden set, or None when
    the graph is too small to host them."""
    ids = sorted(bits(g.active))
    if len(ids) < 2 * k + forbid:
        return None
    chosen = rng.sample(ids, 2 * k + forbid)
    pairs = tuple((chosen[2 * i], chosen[2 * i + 1]) for i in range(k))
    forbidden = frozenset(chosen[2 * k:])
    return pairs, forbidden


def linked_instances(vertex_ids, k: int, strong: bool):
    """Every (subset, forbidden part, pairing) instance on 2k + strong of
    vertex_ids, by itertools and the pairings recursion: subsets in
    combinations order, the vertex left out ascending when strong, then
    the pairings of the rest.  The reference for the library's array
    stream of the same instances."""
    from cubelink.oracle import pairings
    size = 2 * k + (1 if strong else 0)
    for subset in itertools.combinations(vertex_ids, size):
        if strong:
            for x in subset:
                rest = tuple(v for v in subset if v != x)
                for pr in pairings(rest):
                    yield subset, (x,), pr
        else:
            for pr in pairings(subset):
                yield subset, (), pr


def instance_batch(insts):
    """Instance tuples, all with the same numbers of pairs and forbidden
    vertices, as one of the library's array batches."""
    import numpy as np
    from cubelink.oracle import _InstanceBatch
    lead = len(insts[0][1])
    width = lead + 2 * len(insts[0][2])
    rows = [list(forb) + [a for a, _ in pr] + [b for _, b in pr]
            for _, forb, pr in insts]
    return _InstanceBatch(np.array(rows, dtype=np.uint64).reshape(
        len(insts), width), lead)


# -- small references that only the tests use -----------------------------


def full_cube(d: int) -> CubeFace:
    """The d-cube as a face of itself."""
    return CubeFace(d, 0, 0).validate()


def opposite_in_face(v: int, face: CubeFace) -> int:
    """The vertex of `face` antipodal to v (all free coordinates flipped)."""
    if not face.contains(v):
        raise ValueError(f"vertex {v} not in face")
    return v ^ face.free_mask


def project_face(face: CubeFace, pair: OppositeFacetPair,
                 side: int) -> CubeFace:
    """Image of a face under `cube.project` onto the facet x_coord = side."""
    bit = 1 << pair.coord
    return CubeFace(face.d, face.fixed_mask | bit,
                    (face.fixed_values & ~bit) | (side * bit))


def neighbors(d: int, v: int):
    """The d cube neighbours of v, by flipping each coordinate."""
    return [v ^ (1 << i) for i in range(d)]


def components(g: Graph, region=None) -> list[int]:
    """The connected components of g inside `region`, as bitmasks."""
    region = g.active if region is None else region & g.active
    out = []
    rest = region
    while rest:
        comp = reachable_mask(g, rest & -rest, region)
        out.append(comp)
        rest &= ~comp
    return out


def count_pairings(m: int) -> int:
    """(m - 1)!!, the number of perfect matchings of m items."""
    out = 1
    while m > 1:
        out *= m - 1
        m -= 2
    return out
