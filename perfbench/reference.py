"""Brute-force linkage reference, written independently of cubelink's search.

Used to cross-check the oracle's "unlinked" answers on a seeded subsample:
it tries every tuple of simple paths, one per pair, that are pairwise
vertex-disjoint and avoid the other terminals and the forbidden set.
Exponential; meant for graphs of a few dozen vertices.
"""

from __future__ import annotations


def _neighbours(adj: tuple[int, ...], active: int, v: int) -> list[int]:
    a = adj[v] & active
    return [w for w in range(a.bit_length()) if (a >> w) & 1]


def simple_paths(adj, active: int, s: int, t: int, banned: set[int]):
    """Yield every simple s-t path whose inner vertices avoid `banned`."""
    if s == t:
        yield (s,)
        return
    banned = banned - {s, t}
    path = [s]
    on_path = {s}

    def walk(v):
        if v == t:
            yield tuple(path)
            return
        for w in _neighbours(adj, active, v):
            if w in on_path or w in banned:
                continue
            on_path.add(w)
            path.append(w)
            yield from walk(w)
            path.pop()
            on_path.discard(w)

    yield from walk(s)


def brute_linked(adj, active: int, pairs, forbidden=frozenset()) -> bool:
    """Does some family of disjoint paths join every pair?"""
    pairs = [tuple(p) for p in pairs]
    terms = {v for p in pairs for v in p}

    def extend(i: int, used: set[int]) -> bool:
        if i == len(pairs):
            return True
        s, t = pairs[i]
        banned = set(forbidden) | used | (terms - {s, t})
        return any(extend(i + 1, used | set(p))
                   for p in simple_paths(adj, active, s, t, banned))

    return extend(0, set())
