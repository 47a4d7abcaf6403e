"""Shared helpers for the test suite: slow reference oracles written
independently of the library's search code, plus random-graph generators.
Everything here favours obviousness over speed."""

import itertools
import random

from cubelink.graphs import Graph, bits, graph_from_edges, mask_of


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
