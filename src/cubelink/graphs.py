"""Small-graph toolkit shared by the rest of the package.

Vertices are integers 0..n-1 and vertex sets are int bitmasks throughout.
Every graph here is tiny (a few hundred vertices at most), so adjacency is
a list of bitmasks and set algebra is bit twiddling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected graph on 0..n-1 with an `active` vertex mask; `adj` must
    be symmetric (u in adj[v] iff v in adj[u]).

    Inactive vertices carry no edges; they exist so that subgraphs can keep
    the parent's vertex ids instead of re-indexing.
    """

    n: int
    adj: tuple[int, ...]
    active: int

    def __post_init__(self):
        if self.n < 0 or self.n > 4096:
            raise ValueError(f"unsupported vertex count {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(f"{len(self.adj)} adjacency rows for "
                             f"{self.n} vertices")
        full = (1 << self.n) - 1
        if self.active & ~full:
            raise ValueError("active mask outside vertex range")
        # symmetry: every listed u > v must list v back, and the entries
        # must number twice those pairs, so no u < v entry is one-sided
        # (half the lookups of checking every entry)
        unmatched = 0
        for v, a in enumerate(self.adj):
            if a & ~self.active or (a and not (self.active >> v) & 1):
                raise ValueError("edge incident to inactive vertex")
            if (a >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            unmatched += a.bit_count()
            up = a >> (v + 1)
            while up:
                low = up & -up
                u = v + low.bit_length()
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency: vertex {v} "
                                     f"lists {u} but {u} does not list {v}")
                unmatched -= 2
                up ^= low
        if unmatched:
            raise ValueError("asymmetric adjacency: a vertex lists a "
                             "lower neighbour that does not list it")

    # -- basic queries ----------------------------------------------------

    def vertices(self) -> Iterator[int]:
        return bits(self.active)

    @property
    def num_vertices(self) -> int:
        return self.active.bit_count()

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in bits(self.active):
            for v in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    @property
    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def restrict(self, keep: int) -> "Graph":
        """Induced subgraph on `keep` (a bitmask), same vertex ids."""
        keep &= self.active
        adj = tuple(self.adj[v] & keep if (keep >> v) & 1 else 0
                    for v in range(self.n))
        # an induced subgraph of a valid graph is valid, so skip the O(edges)
        # __post_init__ checks: routing builds thousands of these per second
        sub = object.__new__(Graph)
        sub.__dict__.update(n=self.n, adj=adj, active=keep)
        return sub

    def without(self, drop: Iterable[int]) -> "Graph":
        return self.restrict(self.active & ~mask_of(drop))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]],
                     active: Optional[int] = None) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if active is None:
        active = (1 << n) - 1
    return Graph(n, tuple(a & active if (active >> v) & 1 else 0
                          for v, a in enumerate(adj)), active)


# -- reachability and shortest paths --------------------------------------


def reachable_mask(g: Graph, seeds: int, allowed: Optional[int] = None) -> int:
    """All vertices reachable from `seeds` inside `allowed` (seeds included
    only where they lie in `allowed`)."""
    allowed = g.active if allowed is None else allowed & g.active
    frontier = seeds & allowed
    seen = frontier
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def connected_within(g: Graph, region: int) -> bool:
    """Is the induced subgraph on `region` connected?  Empty regions and
    single vertices count as connected."""
    region &= g.active
    if region == 0:
        return True
    seed = region & -region
    return reachable_mask(g, seed, region) == region


def components(g: Graph, region: Optional[int] = None) -> list[int]:
    region = g.active if region is None else region & g.active
    out = []
    rest = region
    while rest:
        seed = rest & -rest
        comp = reachable_mask(g, seed, region)
        out.append(comp)
        rest &= ~comp
    return out


def bfs_distances(g: Graph, seeds: int, allowed: Optional[int] = None) -> dict[int, int]:
    """Distance from the seed set to every reachable vertex, seeds at 0."""
    allowed = g.active if allowed is None else allowed & g.active
    dist: dict[int, int] = {}
    frontier = seeds & allowed
    d = 0
    seen = frontier
    while frontier:
        for v in bits(frontier):
            dist[v] = d
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
        d += 1
    return dist


def shortest_path(g: Graph, src: int, targets: int,
                  allowed: Optional[int] = None) -> Optional[list[int]]:
    """Lexicographically least shortest path from `src` to the target set.

    `src` must lie in `allowed`.  Ties broken by preferring the smaller
    vertex id at every step, which makes the result deterministic.
    """
    allowed = g.active if allowed is None else allowed & g.active
    if not (allowed >> src) & 1:
        return None
    if (targets >> src) & 1:
        return [src]
    seen = 1 << src
    parent: dict[int, int] = {}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:                      # frontier kept sorted
            fresh = g.adj[v] & allowed & ~seen
            seen |= fresh
            for w in bits(fresh):
                parent[w] = v                   # first (least) parent wins
                if (targets >> w) & 1:
                    path = [w]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(w)
        frontier = sorted(nxt)
    return None


# -- vertex-capacity max flow ----------------------------------------------
#
# Node split: in(v) = 2v, out(v) = 2v+1, source = 2n, sink = 2n+1.  All
# vertex capacities are 1 (endpoints included), so the flow value equals the
# maximum number of pairwise fully-disjoint A-B paths.


class _FlowNet:
    def __init__(self, size: int):
        self.head: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def augment(self, s: int, t: int) -> bool:
        # BFS for one augmenting path; edge lists are scanned in insertion
        # order and vertices were added ascending, so the result is stable.
        prev_edge = [-1] * len(self.head)
        prev_edge[s] = -2
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and prev_edge[v] == -1:
                    prev_edge[v] = e
                    q.append(v)
        if prev_edge[t] == -1:
            return False
        v = t
        while v != s:
            e = prev_edge[v]
            self.cap[e] -= 1
            self.cap[e ^ 1] += 1
            v = self.to[e ^ 1]
        return True


def disjoint_paths(g: Graph, sources: Sequence[int], sinks: Sequence[int],
                   need: Optional[int] = None,
                   allowed: Optional[int] = None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint paths from `sources` to
    `sinks` (disjoint including endpoints).

    Returns (count, paths).  If `need` is given, stops once that many paths
    exist; count may still fall short when the graph cannot supply them.
    Paths are recovered by a least-vertex-first walk over the flow, so the
    decomposition is canonical.  A vertex in both sets yields a length-0
    path [v].
    """
    if allowed is not None:
        g = g.restrict(allowed)
    srcs = sorted(set(sources))
    snks = sorted(set(sinks))
    for v in srcs + snks:
        if not (g.active >> v) & 1:
            raise ValueError(f"terminal {v} not in graph")
    n = g.n
    net = _FlowNet(2 * n + 2)
    S, T = 2 * n, 2 * n + 1
    snk_mask = mask_of(snks)
    for v in bits(g.active):
        net.add(2 * v, 2 * v + 1, 1)
    for v in bits(g.active):
        for w in bits(g.adj[v]):
            net.add(2 * v + 1, 2 * w, 1)
    for a in srcs:
        net.add(S, 2 * a, 1)
    for b in snks:
        net.add(2 * b + 1, T, 1)
    flow = 0
    cap = len(srcs) if need is None else need
    while flow < cap and net.augment(S, T):
        flow += 1

    # Trace paths: from each used source, repeatedly follow the unique
    # saturated out-edge, preferring the least next vertex (edges were added
    # ascending so first-found is least).  Consume flow while walking.
    paths: list[list[int]] = []
    for a in srcs:
        # does a's source edge carry flow?
        carried = False
        for e in net.head[S]:
            if e % 2 == 0 and net.to[e] == 2 * a and net.cap[e ^ 1] > 0:
                carried = True
                net.cap[e ^ 1] -= 1
                break
        if not carried:
            continue
        path = [a]
        node = 2 * a
        while True:
            # follow in(v) -> out(v)
            nxt = None
            for e in net.head[node]:
                if e % 2 == 0 and net.cap[e ^ 1] > 0 and net.to[e] == node + 1:
                    nxt = e
                    break
            assert nxt is not None, "flow conservation broken"
            net.cap[nxt ^ 1] -= 1
            node = node + 1
            v = node // 2
            if (snk_mask >> v) & 1:
                # is the sink edge used, or does flow continue?
                sink_edge = None
                for e in net.head[node]:
                    if e % 2 == 0 and net.to[e] == T and net.cap[e ^ 1] > 0:
                        sink_edge = e
                        break
                if sink_edge is not None:
                    net.cap[sink_edge ^ 1] -= 1
                    break
            # follow out(v) -> in(w), least w first
            step = None
            for e in net.head[node]:
                if e % 2 == 0 and net.to[e] != node - 1 and net.cap[e ^ 1] > 0:
                    if step is None or net.to[e] < net.to[step]:
                        step = e
            assert step is not None, "flow conservation broken"
            net.cap[step ^ 1] -= 1
            node = net.to[step]
            path.append(node // 2)
        paths.append(path)
    assert len(paths) == flow
    return flow, paths


def local_connectivity(g: Graph, u: int, v: int) -> int:
    """Max number of internally-disjoint u-v paths (u,v non-adjacent)."""
    if g.has_edge(u, v):
        raise ValueError("local connectivity needs a non-adjacent pair")
    n = g.n
    net = _FlowNet(2 * n + 2)
    for w in bits(g.active):
        c = 10 ** 9 if w in (u, v) else 1
        net.add(2 * w, 2 * w + 1, c)
    for w in bits(g.active):
        for x in bits(g.adj[w]):
            net.add(2 * w + 1, 2 * x, 1)
    flow = 0
    while net.augment(2 * u, 2 * v + 1):
        flow += 1
        if flow > g.num_vertices:
            raise RuntimeError("flow runaway")
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity of the active subgraph.

    Complete graphs (and single vertices) return num_vertices - 1; the empty
    graph returns 0.  Disconnected graphs return 0.
    """
    nv = g.num_vertices
    if nv == 0:
        return 0
    if nv == 1:
        return 0
    if not connected_within(g, g.active):
        return 0
    verts = list(g.vertices())
    if all(g.degree(v) == nv - 1 for v in verts):
        return nv - 1
    # Even/Tarjan style: it is enough to scan one vertex and its neighbours
    # against their non-neighbours.
    v0 = min(verts, key=g.degree)
    best = g.degree(v0)
    outer = [v0] + list(bits(g.adj[v0]))
    for u in outer:
        others = g.active & ~g.adj[u] & ~(1 << u)
        for w in bits(others):
            if w == v0 and u != v0:
                continue
            best = min(best, local_connectivity(g, u, w))
            if best == 0:
                return 0
    return best
