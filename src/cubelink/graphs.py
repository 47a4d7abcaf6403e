"""Small-graph toolkit shared by the rest of the package.

Vertices are integers 0..n-1 and vertex sets are int bitmasks throughout.
Every graph here is tiny (a few hundred vertices at most), so adjacency is
a list of bitmasks and set algebra is bit twiddling.

There is one BFS primitive, `bfs_layers`, which returns the layers of a
search as bitmasks: `reachable_mask`, `bfs_distances` and `shortest_path`
read them, and so do the oracle's path and reachability tests and the
facet-ridge paths in `complexes`.  There is one flow primitive,
`disjoint_paths` (Menger's theorem: disjoint A-B paths), and
`local_connectivity` reduces to it.  It keeps the flow as
per-vertex state and searches the implicit residual of the node-split
network, so no network is built per call (building one cost three times
the search itself on the router's <= 64-vertex graphs).  Its BFS visits
residual neighbours in one fixed order, the order an explicit network
built ascending would list them in: the router's case analysis branches
on which paths come back, so that order is part of the contract.
"""

from __future__ import annotations

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


def bfs_layers(adj: Sequence[int], seeds: int, allowed: int,
               near: int = 0) -> list[int]:
    """The BFS layers from `seeds`, each an int bitmask.

    Layer 0 is `seeds`; each later layer holds the vertices of `allowed`
    first reached from the layer before.  The search stops after the
    first layer that meets `near`, or when no new vertex is reached, so
    the last layer meets `near` iff any layer does.  Adjacency is read
    from the bitmask rows `adj`.

    Reachability, distances and shortest paths (here, in the oracle and
    on the facet-ridge dual) all read its layers; only `disjoint_paths`
    searches a network of its own.  Each layer expands with an inline
    lowest-bit loop, with no call or generator per vertex, since the
    oracle's greedy stage and DFS prune run it on every campaign instance.
    """
    layer = seeds
    rest = allowed & ~seeds
    layers = [layer]
    while not layer & near:
        nxt = 0
        while layer:
            low = layer & -layer
            nxt |= adj[low.bit_length() - 1]
            layer ^= low
        layer = nxt & rest
        if not layer:
            break
        rest ^= layer
        layers.append(layer)
    return layers


def path_back(adj: Sequence[int], layers: Sequence[int], t: int) -> list[int]:
    """The path from layer 0 to `t`, a neighbour of the last layer, read
    back through `layers`: each vertex's predecessor is its least-id
    neighbour one layer closer to layer 0, the parent a forward BFS over
    ascending frontiers records first."""
    path = [t]
    v = t
    for layer in reversed(layers):
        back = layer & adj[v]
        v = (back & -back).bit_length() - 1
        path.append(v)
    path.reverse()
    return path


def reachable_mask(g: Graph, seeds: int, allowed: Optional[int] = None) -> int:
    """All vertices reachable from `seeds` inside `allowed` (seeds included
    only where they lie in `allowed`)."""
    allowed = g.active if allowed is None else allowed & g.active
    seen = 0
    for layer in bfs_layers(g.adj, seeds & allowed, allowed):
        seen |= layer
    return seen


def connected_within(g: Graph, region: int) -> bool:
    """Is the induced subgraph on `region` connected?  Empty regions and
    single vertices count as connected."""
    region &= g.active
    if region == 0:
        return True
    seed = region & -region
    return reachable_mask(g, seed, region) == region


def bfs_distances(g: Graph, seeds: int, allowed: Optional[int] = None) -> dict[int, int]:
    """Distance from the seed set to every reachable vertex, seeds at 0."""
    allowed = g.active if allowed is None else allowed & g.active
    return {v: d for d, layer in enumerate(bfs_layers(g.adj, seeds & allowed,
                                                      allowed))
            for v in bits(layer)}


def shortest_path(g: Graph, src: int, targets: int,
                  allowed: Optional[int] = None) -> Optional[list[int]]:
    """A shortest path inside `allowed` from `src` to the target set.

    `src` must lie in `allowed`, and so must the target it reaches.  The
    result is deterministic but not the lexicographically least shortest
    path: it ends at the least target neighbour of the least vertex at the
    path's last distance that has one, and every other vertex is preceded
    by its least-id neighbour one BFS layer closer to `src`.
    """
    allowed = g.active if allowed is None else allowed & g.active
    if not (allowed >> src) & 1:
        return None
    if (targets >> src) & 1:
        return [src]
    adj = g.adj
    goal = targets & allowed
    near = 0
    for t in bits(goal):
        near |= adj[t]
    layers = bfs_layers(adj, 1 << src, allowed, near)
    hit = layers[-1] & near
    if not hit:
        return None
    # the least vertex of the last layer adjacent to this target is the
    # least one with any target neighbour, so path_back steps to it
    ends = adj[(hit & -hit).bit_length() - 1] & goal
    return path_back(adj, layers, (ends & -ends).bit_length() - 1)


# -- vertex-disjoint paths (Menger) ------------------------------------------
#
# The flow lives on the node-split network: in(v) -> out(v) with capacity 1
# for every vertex, out(v) -> in(w) for every edge v-w, a source S -> in(a)
# for every a in A and out(b) -> T for every b in B.  The network is never
# built.  With unit vertex capacities a vertex passes at most one unit, so
# the flow is per-vertex state: the mask `thru` of vertices carrying flow,
# fout[v] = w and fin[w] = v for each flow edge v -> w (-1 for none), and
# the masks of sources and sinks whose S/T edge is used.  Residual
# neighbours of a split node are read off that state and the `g.adj`
# bitmasks.


def disjoint_paths(g: Graph, sources: Sequence[int], sinks: Sequence[int],
                   need: Optional[int] = None) -> tuple[int, list[list[int]]]:
    """Maximum family of pairwise vertex-disjoint paths from `sources` to
    `sinks` (disjoint including endpoints).

    Returns (count, paths).  If `need` is given, stops once that many paths
    exist; count may still fall short when the graph cannot supply them.
    A vertex in both sets yields a length-0 path [v].

    Each augmenting path is found by a BFS over the implicit residual of
    the node-split network (see above), which visits neighbours in a fixed
    order: S reaches the unused sources ascending; in(v) goes to out(v)
    when v carries no flow, else back to out(fin[v]); out(v) goes first to
    in(v) when v carries flow, then to in(w) for w in adj[v] ascending
    (skipping fout[v]), then to T when v is an unused sink; the first node
    to discover another is its parent.  That is the insertion order of an
    explicit edge-list network built ascending, so the chosen flow, and the
    paths and router branches that depend on it, are canonical.  Paths are
    read by following fout from each used source, ascending, to a used
    sink.
    """
    srcs = sorted(set(sources))
    snks = sorted(set(sinks))
    for v in srcs + snks:
        if not (g.active >> v) & 1:
            raise ValueError(f"terminal {v} not in graph")
    adj = g.adj
    n = g.n
    src_mask = mask_of(srcs)
    snk_mask = mask_of(snks)
    fout = [-1] * n
    fin = [-1] * n
    thru = used_src = used_snk = 0
    par = [0] * (2 * n)              # split node -> the node that found it
    flow = 0
    cap = len(srcs) if need is None else need
    while flow < cap:
        # BFS; node 2v is in(v), 2v+1 is out(v), -1 is S
        free = src_mask & ~used_src
        seen_in = free
        seen_out = 0
        queue = []
        for a in bits(free):
            par[2 * a] = -1
            queue.append(2 * a)
        end = -1                     # out(b) of the sink reaching T
        i = 0
        while i < len(queue):
            x = queue[i]
            i += 1
            v = x >> 1
            if not x & 1:                                  # in(v)
                u = fin[v] if (thru >> v) & 1 else v
                if u >= 0 and not (seen_out >> u) & 1:
                    seen_out |= 1 << u
                    par[2 * u + 1] = x
                    queue.append(2 * u + 1)
                continue
            if (thru >> v) & 1 and not (seen_in >> v) & 1:  # out(v)
                seen_in |= 1 << v
                par[2 * v] = x
                queue.append(2 * v)
            fresh = adj[v] & ~seen_in
            if fout[v] >= 0:
                fresh &= ~(1 << fout[v])
            seen_in |= fresh
            while fresh:
                low = fresh & -fresh
                w = low.bit_length() - 1
                par[2 * w] = x
                queue.append(2 * w)
                fresh ^= low
            if (snk_mask >> v) & 1 and not (used_snk >> v) & 1:
                end = x
                break
        if end < 0:
            break
        # augment from T back to S; clears are conditional because a
        # vertex can lose one flow edge and gain another on the same path
        used_snk |= 1 << (end >> 1)
        x = end
        while True:
            p = par[x]
            v = x >> 1
            if p < 0:                                      # S -> in(v)
                used_src |= 1 << v
                break
            u = p >> 1
            if x & 1:                                      # ... -> out(v)
                if u == v:                                 # in(v) -> out(v)
                    thru |= 1 << v
                else:                                      # cancel v -> u
                    if fout[v] == u:
                        fout[v] = -1
                    if fin[u] == v:
                        fin[u] = -1
            elif u == v:                                   # out(v) -> in(v)
                thru &= ~(1 << v)
            else:                                          # flow u -> v
                fout[u] = v
                fin[v] = u
            x = p
        flow += 1

    paths: list[list[int]] = []
    for a in bits(used_src):
        path = [a]
        v = a
        while not (used_snk >> v) & 1:
            v = fout[v]
            assert v >= 0, "flow conservation broken"
            path.append(v)
        paths.append(path)
    assert len(paths) == flow
    return flow, paths


def local_connectivity(g: Graph, u: int, v: int) -> int:
    """Max number of internally-disjoint u-v paths (u,v non-adjacent).

    By Menger this is the number of disjoint N(u)-N(v) paths in G - u - v.
    """
    if u == v or g.has_edge(u, v):
        raise ValueError("local connectivity needs a non-adjacent pair")
    return disjoint_paths(g.without([u, v]), list(bits(g.adj[u])),
                          list(bits(g.adj[v])))[0]


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
