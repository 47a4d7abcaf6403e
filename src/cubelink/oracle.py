"""Ground truth for linkages: complete search, Menger paths, campaigns.

The solver works on bitmask adjacency.  A linkage problem with pairs
{s_i, t_i} and a forbidden set runs through three stages in turn:

1. greedy: route the pairs one after another along BFS shortest paths
   through fresh non-terminal vertices, in both pair orders.  A full
   routing is a real linkage by construction; a failure proves nothing.
2. fast no: some s_i cannot reach t_i avoiding the forbidden set and the
   other terminals, so no linkage exists.
3. the complete DFS: depth-first extension of one partial path at a time,
   pruned where some unfinished pair cannot reach its mate in the residual
   graph (such a state has no completion).

Greedy runs before fast-no because a greedy success passes fast-no: each
of its paths already avoids every other terminal and the forbidden set.
So the order changes no verdict and no returned linkage, only the cost of
the instances greedy decides, which are nearly all campaign instances.
All three stages read their paths and reachability off one BFS,
`graphs.bfs_layers`, which keeps each layer as one int bitmask.  No stage
affects completeness, which the tests cross-check against a naive
all-simple-path-tuples enumerator on small graphs.

Campaigns add a batch stage in front: on graphs of at most 64 vertices,
one vectorized greedy pass (numpy, one uint64 mask per instance and BFS
layer) decides a whole batch of instances, and only those it leaves
undecided go through the three stages above.  It passes an instance iff
the scalar greedy links it in one of its two pair orders, so no verdict,
witness or count depends on it.  Larger graphs skip it.

Every campaign is array-native: the linkedness sweeps, and the star and
routing campaigns of `cli` too.  Their instances come in
`_InstanceBatch`es, one uint64 row of forbidden vertices and pair ends
per instance, which the prefilter reads directly; an instance tuple is
built only for a row the prefilter leaves to the scalar stages, a
witness, or a check with no prefilter (the routers').  The exhaustive
sweep turns chunks of vertex subsets into rows by one gather at a table
of instance shapes (the orbit sweep of `symmetry` does the same for its
canonical instances, and a star sweep for the subsets that hold the
centre).  The sampled one is array-native from the random words on:
instance i of seed S is call number i of `random.Random(S).sample(ids,
size)`, but the sampler reads the generator's words thousands at a time
and decodes them in numpy into exactly the picks `sample` makes (see
"sampled instances" below).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .cube import cube_graph
from .graphs import (Graph, bfs_layers, bits, connected_within, mask_of,
                     path_back)

DEFAULT_BUDGET = 10 ** 7
CAMPAIGN_BATCH = 1000        # instances per batch, the unit of work of a job
SWEEP_BATCH = 20000          # rows per batch of an exhaustive linkedness sweep
PROGRESS_EVERY = 100000      # instances between progress callbacks


class SearchBudgetExceeded(RuntimeError):
    """The DFS node cap was hit; the instance is undecided, not unlinked."""


@dataclass(frozen=True)
class LinkageProblem:
    graph: Graph
    pairs: tuple[tuple[int, int], ...]
    forbidden: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "pairs",
                           tuple(tuple(sorted(p)) for p in self.pairs))
        object.__setattr__(self, "forbidden", frozenset(self.forbidden))
        g = self.graph
        terms = [v for p in self.pairs for v in p]
        if len(set(terms)) != len(terms):
            raise ValueError("terminals must be distinct")
        for v in terms:
            if not (g.active >> v) & 1:
                raise ValueError(f"terminal {v} not in graph")
        for v in self.forbidden:
            if not (g.active >> v) & 1:
                raise ValueError(f"forbidden vertex {v} not in graph")
        if self.forbidden & set(terms):
            raise ValueError("forbidden set may not contain terminals")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def to_json_dict(self, graph_repr=None) -> dict:
        if graph_repr is None:
            graph_repr = [sorted(bits(self.graph.adj[v]))
                          for v in range(self.graph.n)]
        return {
            "graph": graph_repr,
            "pairs": [list(p) for p in self.pairs],
            "forbidden": sorted(self.forbidden),
        }


class InvalidLinkage(ValueError):
    """A linkage that does not solve its problem (`Linkage.check_against`)."""


@dataclass(frozen=True)
class Linkage:
    paths: tuple[tuple[int, ...], ...]

    def check_against(self, p: LinkageProblem) -> "Linkage":
        if len(self.paths) != len(p.pairs):
            raise InvalidLinkage("one path per pair required")
        seen: set[int] = set()
        for path, pair in zip(self.paths, p.pairs):
            if not path:
                raise InvalidLinkage("empty path")
            if {path[0], path[-1]} != set(pair):
                raise InvalidLinkage(f"path endpoints {path[0]},{path[-1]} "
                                     f"do not match pair {pair}")
            if len(set(path)) != len(path):
                raise InvalidLinkage("path revisits a vertex")
            for u, v in zip(path, path[1:]):
                if not p.graph.has_edge(u, v):
                    raise InvalidLinkage(f"non-edge {u}-{v} on a path")
            if seen & set(path):
                raise InvalidLinkage("paths share a vertex")
            seen |= set(path)
            hit = p.forbidden & set(path)
            if hit:
                raise InvalidLinkage(f"path meets forbidden vertices "
                                     f"{sorted(hit)}")
        return self


@dataclass(frozen=True)
class Verdict:
    status: str                       # verified | counterexample | sampled_pass
    instances_checked: int
    witness: Optional[LinkageProblem]
    elapsed_ms: int
    seed: Optional[int] = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.witness is not None) != (self.status == "counterexample"):
            raise ValueError("witness present iff status = counterexample")

    def to_json_dict(self, witness_graph_repr=None) -> dict:
        return {
            "status": self.status,
            "checked": self.instances_checked,
            "witness": (None if self.witness is None
                        else self.witness.to_json_dict(witness_graph_repr)),
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
            **({"detail": _json_safe(self.detail)} if self.detail else {}),
        }


def _json_safe(x):
    if isinstance(x, dict):
        return {str(k): _json_safe(v)
                for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    return x


# -- core search -------------------------------------------------------------


def _reach_ok(adj: Sequence[int], src: int, goal: int, allowed: int) -> bool:
    """Can src reach goal stepping through `allowed` (goal bit included)?
    The search stops at the first layer with a neighbour of goal, read
    from goal's side, which `Graph`'s symmetry check makes equivalent to
    each vertex listing goal."""
    if src == goal:
        return True
    near = adj[goal]
    return bool(bfs_layers(adj, 1 << src, allowed, near)[-1] & near)


def _bfs_path(adj: Sequence[int], s: int, t: int,
              allowed: int) -> Optional[list[int]]:
    """Shortest s-t path with interior in `allowed`; deterministic
    (least-id parents win, see `path_back`).  s and t need not lie in
    `allowed`."""
    if s == t:
        return [s]
    near = adj[t]
    layers = bfs_layers(adj, 1 << s, allowed, near)
    if not layers[-1] & near:
        return None
    return path_back(adj, layers, t)


def _greedy_attempt(adj: Sequence[int], active: int,
                    pairs: Sequence[tuple[int, int]], blocked: int,
                    order: Sequence[int]) -> Optional[list[list[int]]]:
    """Route pairs one after another along BFS shortest paths through fresh
    non-terminal vertices.  Full routings are valid linkages by
    construction; failures prove nothing."""
    term_mask = 0
    for s, t in pairs:
        term_mask |= (1 << s) | (1 << t)
    used = blocked | term_mask
    out: list = [None] * len(pairs)
    for i in order:
        s, t = pairs[i]
        path = _bfs_path(adj, s, t, active & ~used)
        if path is None:
            return None
        out[i] = path
        for v in path:
            used |= 1 << v
    return out


def _solve_dfs(adj: Sequence[int], active: int,
               pairs: Sequence[tuple[int, int]], forbidden_mask: int,
               budget: int) -> Optional[list[list[int]]]:
    """Complete DFS over partial-path extensions.

    State per pair: the path grown so far from s_i.  Each step branches on
    the unfinished pair with the fewest legal extensions; a pair finishes by
    stepping onto its mate.  Prune: every unfinished pair must still reach
    its mate through unused, unforbidden, non-terminal vertices.
    """
    k = len(pairs)
    term_mask = 0
    for s, t in pairs:
        term_mask |= (1 << s) | (1 << t)
    open_mask = active & ~forbidden_mask
    paths = [[s] for s, _ in pairs]
    goals = [t for _, t in pairs]
    done = [False] * k
    visited = term_mask | forbidden_mask     # never step on these, goals re-allowed
    nodes = 0

    def allowed_for(j: int) -> int:
        return (open_mask & ~visited) | (1 << goals[j])

    def feasible() -> bool:
        for j in range(k):
            if not done[j] and not _reach_ok(adj, paths[j][-1], goals[j],
                                             allowed_for(j)):
                return False
        return True

    def rec() -> bool:
        nonlocal nodes, visited
        best = -1
        best_cands = 0
        best_n = 1 << 30
        for j in range(k):
            if done[j]:
                continue
            c = adj[paths[j][-1]] & allowed_for(j)
            n = c.bit_count()
            if n == 0:
                return False
            if n < best_n:
                best, best_cands, best_n = j, c, n
                if n == 1:
                    break
        if best == -1:
            return True                      # all pairs finished
        i, cands = best, best_cands
        goal_bit = 1 << goals[i]
        for v in bits(cands):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"budget {budget} exceeded")
            vb = 1 << v
            paths[i].append(v)
            if vb == goal_bit:
                done[i] = True
                if feasible() and rec():
                    return True
                done[i] = False
            else:
                visited |= vb
                if feasible() and rec():
                    return True
                visited &= ~vb
            paths[i].pop()
        return False

    if not feasible():
        return None
    if rec():
        return [list(p) for p in paths]
    return None


def _solve_core(adj: Sequence[int], active: int,
                pairs: Sequence[tuple[int, int]], forbidden_mask: int,
                budget: int) -> Optional[list[list[int]]]:
    """Shared fast path + complete fallback; the campaign hot loop.

    Stages: greedy in both pair orders, then fast-no, then `_solve_dfs`.
    Fast-no only ever answers None, and it passes on every instance that
    greedy routes (greedy paths avoid the forbidden set and all other
    terminals), so running it after greedy returns exactly what running
    it first would."""
    if not pairs:
        return []
    k = len(pairs)
    orders: list[tuple[int, ...]] = [tuple(range(k))]
    if k > 1:
        orders.append(tuple(reversed(range(k))))
    for order in orders:
        got = _greedy_attempt(adj, active, pairs, forbidden_mask, order)
        if got is not None:
            return got
    term_mask = 0
    for s, t in pairs:
        term_mask |= (1 << s) | (1 << t)
    # fast no: each path must avoid the other terminals and the forbidden set
    for s, t in pairs:
        allowed = (active & ~forbidden_mask & ~term_mask) | (1 << t)
        if not _reach_ok(adj, s, t, allowed):
            return None
    return _solve_dfs(adj, active, pairs, forbidden_mask, budget)


# -- batch greedy prefilter ---------------------------------------------------
#
# The greedy stage over a whole campaign batch at once, in numpy: row r of
# the batch arrays holds one instance, each BFS layer is one uint64 mask per
# row, and frontiers expand through per-byte neighbourhood tables.  It
# covers graphs on at most 64 vertices and answers exactly what
# `_greedy_attempt` answers in the pair orders `_solve_core` tries.


@functools.lru_cache(maxsize=32)
def _byte_tables(adj: tuple[int, ...]):
    """A graph on at most 64 vertices as numpy arrays: its adjacency rows
    as uint64 masks, and its per-byte neighbourhood tables, in which row b,
    column x is the union of adj[8b + i] over the bits i of x."""
    import numpy as np
    nb = (len(adj) + 7) // 8
    padded = adj + (0,) * (8 * nb - len(adj))
    tables = np.zeros((nb, 256), dtype=np.uint64)
    for b in range(nb):
        row = [0] * 256
        for x in range(1, 256):
            low = x & -x
            row[x] = row[x ^ low] | padded[8 * b + low.bit_length() - 1]
        tables[b] = row
    return np.array(adj, dtype=np.uint64), tables


def _expand(tables, layer):
    """Per row, the union of the neighbourhoods of the vertices in `layer`."""
    import numpy as np
    by = layer.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    nxt = tables[0].take(by[:, 0])
    for b in range(1, len(tables)):
        nxt |= tables[b].take(by[:, b])
    return nxt


def _bfs_rows(adj_arr, tables, s, t, allowed, want_path: bool):
    """`_bfs_path` for each row of the uint64 arrays s, t and allowed:
    which rows find a path, and with `want_path` each path's interior as a
    mask, read back through the layers by the same least-id rule."""
    import numpy as np
    one = np.uint64(1)
    layer = one << s
    goal = adj_arr[t]
    rest = allowed & ~(layer | (one << t))
    found = (layer & goal) != 0
    layer[found] = 0                  # a row stops at the layer meeting t
    layers = []
    while layer.any():
        layer = _expand(tables, layer) & rest
        rest ^= layer
        layers.append(layer)
        hit = (layer & goal) != 0
        found |= hit
        layer = np.where(hit, np.uint64(0), layer)
    if not want_path:
        return found, None
    # a row's layers past its last one are empty, so its walk back starts
    # at its own last layer; rows that never met t never leave t
    v = t
    inner = np.zeros_like(allowed)
    for layer in reversed(layers):
        back = layer & adj_arr[v]
        low = back & -back
        inner |= low
        v = np.where(low != 0, np.bitwise_count(low - one), v)
    return found, inner


def _greedy_rows(adj_arr, tables, active, src, dst, used, order):
    """Indices of the rows whose pairs greedy routes in `order`; `used`
    holds each row's terminals and forbidden vertices."""
    import numpy as np
    live = np.arange(len(used))
    for step, i in enumerate(order):
        last = step == len(order) - 1
        found, inner = _bfs_rows(adj_arr, tables, src[live, i], dst[live, i],
                                 active & ~used, not last)
        live = live[found]
        if not last:
            used = (used | inner)[found]
    return live


def _greedy_passes(adj: tuple[int, ...], active: int, batch):
    """Batch form of the greedy stage of `_solve_core` on an
    `_InstanceBatch`: row r passes iff `_greedy_attempt` routes the pairs
    zip(src[r], dst[r]) in the forward order or, for k > 1, the reversed
    one.  The reversed order reruns only the rows the forward one failed.
    Needs len(adj) <= 64."""
    import numpy as np
    adj_arr, tables = _byte_tables(adj)
    # a row holds exactly its terminals and forbidden vertices
    used = np.bitwise_or.reduce(np.uint64(1) << batch.rows, axis=1)
    src, dst = batch.src, batch.dst
    active = np.uint64(active)
    k = src.shape[1]
    ok = np.zeros(len(used), dtype=bool)
    ok[_greedy_rows(adj_arr, tables, active, src, dst, used,
                    range(k))] = True
    if k > 1:
        rows = np.flatnonzero(~ok)
        ok[rows[_greedy_rows(adj_arr, tables, active, src[rows], dst[rows],
                             used[rows], range(k - 1, -1, -1))]] = True
    return ok


def solve_linkage(p: LinkageProblem,
                  budget: int = DEFAULT_BUDGET) -> Optional[Linkage]:
    """A valid linkage for p, or None when none exists.  Complete for the
    contract sizes (k <= 4); raises SearchBudgetExceeded at the node cap."""
    got = _solve_core(p.graph.adj, p.graph.active, p.pairs,
                      mask_of(p.forbidden), budget)
    if got is None:
        return None
    return Linkage(tuple(tuple(path) for path in got)).check_against(p)


# -- Menger paths ----------------------------------------------------------


def menger_paths(g: Graph, a: Iterable[int], b: Iterable[int],
                 k: int) -> Optional[list[list[int]]]:
    """k pairwise vertex-disjoint A-B paths, each meeting A only at its
    start and B only at its end; None iff a vertex cut smaller than k
    separates A from B."""
    from .graphs import disjoint_paths
    al, bl = sorted(set(a)), sorted(set(b))
    if len(al) < k or len(bl) < k:
        raise ValueError(f"need |A| >= {k} and |B| >= {k}")
    count, paths = disjoint_paths(g, al, bl, need=k)
    if count < k:
        return None
    amask, bmask = mask_of(al), mask_of(bl)
    return [_trim_to_sets(path, amask, bmask) for path in paths[:k]]


def _trim_to_sets(path: list[int], amask: int, bmask: int) -> list[int]:
    # cut to the last A-vertex before the first B-vertex
    j = next(i for i, v in enumerate(path) if (bmask >> v) & 1)
    i = max(x for x in range(j + 1) if (amask >> path[x]) & 1)
    return path[i:j + 1]


# -- instance enumeration ----------------------------------------------------


def pairings(items: Sequence[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect pairings, lexicographically: the least item pairs with
    every partner in ascending order, recursively."""
    items = tuple(items)
    if not items:
        yield ()
        return
    a = items[0]
    rest = items[1:]
    for idx in range(len(rest)):
        partner = rest[idx]
        tail = rest[:idx] + rest[idx + 1:]
        for sub in pairings(tail):
            yield ((a, partner),) + sub


Instance = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]
# (subset, forbidden-part, pairing); the canonical witness ordering is the
# tuple order of exactly this triple


class _InstanceBatch:
    """Instances as one array, a row each, for the campaign engine.  Row r
    of the uint64 `rows` holds instance r's forbidden vertices (the first
    `lead` columns), then its pair sources, then its pair targets; each
    pair has source < target and the pairs are sorted.  `forb`, `src` and
    `dst` are those column blocks.  `batch[i]` is the instance tuple of
    row i, built only when asked for: for a witness, or a row the
    prefilter leaves to the scalar stages."""

    def __init__(self, rows, lead: int):
        self.rows, self.lead = rows, lead
        self.k = (rows.shape[1] - lead) // 2

    @property
    def forb(self):
        return self.rows[:, :self.lead]

    @property
    def src(self):
        return self.rows[:, self.lead:self.lead + self.k]

    @property
    def dst(self):
        return self.rows[:, self.lead + self.k:]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> Instance:
        row = self.rows[i].tolist()
        lead, k = self.lead, self.k
        return (tuple(sorted(row)), tuple(row[:lead]),
                tuple(zip(row[lead:lead + k], row[lead + k:])))

    def __iter__(self) -> Iterator[Instance]:
        return map(self.__getitem__, range(len(self)))


@functools.lru_cache(maxsize=None)
def _shape_tables(size: int, strong: bool):
    """The instances on subset positions 0..size-1 as a read-only (shapes,
    size) intp array laid out as `_InstanceBatch` rows: for strong, the
    position left out, then the pair sources, then the pair targets.
    Shapes run in lexicographic order of (left out, pairing), which is the
    order of the instance tuples on an ascending subset."""
    import numpy as np
    positions = tuple(range(size))
    if strong:
        shapes = [((x,), pr) for x in positions
                  for pr in pairings(positions[:x] + positions[x + 1:])]
    else:
        shapes = [((), pr) for pr in pairings(positions)]
    out = np.array([left + tuple(a for a, _ in pr) + tuple(b for _, b in pr)
                    for left, pr in shapes], dtype=np.intp)
    out = out.reshape(len(shapes), size)
    out.flags.writeable = False
    return out


def _rebatch(parts: Iterable, lead: int,
             per_batch: int) -> Iterator[_InstanceBatch]:
    """A stream of `_InstanceBatch` row arrays cut into batches of
    per_batch rows, the last perhaps fewer.  Rows left over at the end of
    one array open the next batch, so batch boundaries do not depend on
    how the stream was chunked."""
    import numpy as np
    held = None
    for rows in parts:
        if held is not None:
            fill = per_batch - len(held)
            held, rows = np.concatenate((held, rows[:fill])), rows[fill:]
            if len(held) < per_batch:
                continue
            yield _InstanceBatch(held, lead)
        cut = len(rows) - len(rows) % per_batch
        for at in range(0, cut, per_batch):
            yield _InstanceBatch(rows[at:at + per_batch], lead)
        held = rows[cut:] if cut < len(rows) else None
    if held is not None:
        yield _InstanceBatch(held, lead)


def _linked_batches(vertex_ids: Sequence[int], k: int, strong: bool,
                    per_batch: int = CAMPAIGN_BATCH,
                    pinned: Optional[int] = None
                    ) -> Iterator[_InstanceBatch]:
    """Every instance on 2k + strong of the ascending vertex_ids, as
    `_InstanceBatch`es of per_batch rows (the last may hold fewer):
    subsets in `itertools.combinations` order and each subset's instances
    in `_shape_tables` order, so the stream is in instance tuple order.
    With `pinned`, only the subsets that hold that vertex, in
    `combinations` order of their other vertices (a star campaign pins
    the centre).  A chunk of subsets becomes rows in one gather."""
    import numpy as np
    size = 2 * k + (1 if strong else 0)
    shapes = _shape_tables(size, strong)
    per_chunk = max(1, per_batch // len(shapes))
    if pinned is None:
        combos = itertools.combinations(vertex_ids, size)
    else:
        rest = [v for v in vertex_ids if v != pinned]
        combos = ((pinned,) + c
                  for c in itertools.combinations(rest, size - 1))

    def parts():
        while chunk := list(itertools.islice(combos, per_chunk)):
            subsets = np.array(chunk, dtype=np.uint64).reshape(len(chunk),
                                                                size)
            if pinned is not None:
                subsets.sort(axis=1)        # the pinned vertex into place
            yield subsets[:, shapes].reshape(len(chunk) * len(shapes), size)

    return _rebatch(parts(), 1 if strong else 0, per_batch)


# -- sampled instances ---------------------------------------------------------
#
# A sampled instance is one `random.Random(seed).sample(vertex_ids, size)`
# call: the forbidden vertex first when strong, then the pair ends two by
# two.  The sampler makes exactly the picks successive `sample` calls make,
# from the same Mersenne Twister words, but reads thousands of words per
# `getrandbits` call and decodes them in numpy.
#
# `sample(pop, size)` on n items calls `_randbelow(m)` size times, and
# `_randbelow(m)` takes one word w per try, keeps r = w >> (32 - b) with
# b = m.bit_length(), and tries again while r >= m.  It picks by one of
# two methods:
#
# - pool, when n <= setsize: step i draws j = _randbelow(n - i), picks
#   pool[j] and moves pool[n - i - 1] into the gap.  Most words are kept
#   at every step or at none, which numpy settles at once; the others go
#   through a Python pass that counts the steps.  They are 5 in 64 words
#   on bicube_5 (n = 48, size 6), but nearly half when n is a power of
#   two, where step 0 reads one bit more than the later steps.  The pool
#   moves then run across a whole batch of samples at once.
# - set, otherwise: every step draws j = _randbelow(n) and draws again
#   while j was picked already in this sample.  The range test is the
#   same for every word; repeats are rare and resolved per sample.
#
# Draws decoded past the end of a batch carry into the next batch, so the
# batch size never changes the stream.

_WORD_BITS = 32


def _setsize(size: int) -> int:
    """`Random.sample`'s cut-off: it runs the pool method on populations
    of at most this many items, the set method on larger ones."""
    out = 21
    if size > 5:
        out += 4 ** math.ceil(math.log(size * 3, 4))
    return out


def _read_words(rng: random.Random, count: int):
    """The next `count` words of rng in the order `getrandbits(32)` calls
    would return them: getrandbits(32 * count) fills its result from the
    least significant word up."""
    import numpy as np
    raw = rng.getrandbits(_WORD_BITS * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


@functools.lru_cache(maxsize=None)
def _pool_tables(n: int, size: int):
    """The tables `_PoolDraws` reads for a population of n and samples of
    size, built once per (n, size) and shared read-only: (bits, value,
    always, sometimes, keep_by_step, words_per_draw).  Per top bits t of a
    word, value[i][t] is the r of `_randbelow(n - i)` at step i; always[t]
    and sometimes[t] say whether every step keeps the word or only some
    do; keep_by_step[t][i] says whether step i does, listed twice over so
    a phase needs no mod."""
    import numpy as np
    bits = n.bit_length()
    lens = [(n - i).bit_length() for i in range(size)]
    tops = np.arange(1 << bits)
    value = tuple(tops >> (bits - b) for b in lens)
    keep = np.stack(value) < (n - np.arange(size))[:, None]
    always = keep.all(axis=0)
    sometimes = keep.any(axis=0) & ~always
    for a in value + (always, sometimes):
        a.flags.writeable = False
    keep_by_step = tuple(tuple(col * 2) for col in keep.T.tolist())
    words_per_draw = sum((1 << b) / (n - i) for i, b in enumerate(lens)) / size
    return bits, value, always, sometimes, keep_by_step, words_per_draw


class _PoolDraws:
    """Pool-method draws.  `decode` keeps a word's top `bits` bits when
    `_randbelow(n - i)` keeps the word, step i being the number of words
    kept before it mod size; `cut` turns kept words into samples.  Only
    the step is the stream's own; the tables are `_pool_tables`'."""

    def __init__(self, n: int, size: int):
        self.n, self.size = n, size
        (self.bits, self.value, self.always, self.sometimes,
         self.keep_by_step, self.words_per_draw) = _pool_tables(n, size)
        self.draws_per_sample = size
        self.step = 0                   # the step of the next word

    def decode(self, words):
        import numpy as np
        top = (words >> (_WORD_BITS - self.bits)).astype(np.intp)
        kept = self.always.take(top)
        odd = np.flatnonzero(self.sometimes.take(top))
        if len(odd):
            # the Python pass over the words whose step decides: a word's
            # step counts the words kept before it
            size = self.size
            steps = ((np.searchsorted(np.flatnonzero(kept), odd) + self.step)
                     % size).tolist()
            by_step = self.keep_by_step
            hits: list[int] = []
            more = 0                    # odd words kept so far, mod size
            for p, t, i in zip(odd.tolist(), top[odd].tolist(), steps):
                if by_step[t][i + more]:
                    hits.append(p)
                    more = more + 1 if more + 1 < size else 0
            kept[hits] = True
        self.step = (self.step + int(np.count_nonzero(kept))) % self.size
        return top.compress(kept)

    def cut(self, draws, rows: int):
        """Up to `rows` samples from `draws`, which starts a sample, as
        (samples, size) population indices; and the draws they used.  The
        pool moves run on one flat (samples * n) pool at a time."""
        import numpy as np
        n, size = self.n, self.size
        rows = min(rows, len(draws) // size)
        tops = draws[:rows * size].reshape(rows, size)
        base = np.arange(0, rows * n, n)
        pool = np.tile(np.arange(n), rows)
        out = np.empty((size, rows), dtype=np.intp)
        for i in range(size):
            at = base + self.value[i].take(tops[:, i])
            out[i] = pool.take(at)
            pool.put(at, pool.take(base + (n - i - 1)))
        return out.T, rows * size


class _SetDraws:
    """Set-method draws: every j of `_randbelow(n)` in range, in stream
    order; a sample takes them until it holds size distinct ones."""

    def __init__(self, n: int, size: int):
        self.n, self.size = n, size
        self.bits = n.bit_length()
        self.words_per_draw = (1 << self.bits) / n
        self.draws_per_sample = sum(n / (n - i) for i in range(size))

    def decode(self, words):
        import numpy as np
        r = (words >> (_WORD_BITS - self.bits)).astype(np.intp)
        return r.compress(r < self.n)

    def cut(self, draws, rows: int):
        """As `_PoolDraws.cut`.  A sample whose size draws hold a repeat
        is rebuilt in Python and the samples after it shift along."""
        import numpy as np
        size = self.size
        clean = len(draws) - size + 1        # windows of size draws
        if clean <= 0:
            return np.empty((0, size), dtype=np.intp), 0
        # clean[p]: the size draws from p hold no repeat
        ok = np.ones(clean, dtype=bool)
        for a in range(1, size):
            for b in range(a):
                ok &= draws[a:a + clean] != draws[b:b + clean]
        ok = ok.tolist()
        starts: list[int] = []
        fixed = []
        p = 0
        vals = None
        while len(starts) < rows:
            if p < clean and ok[p]:
                starts.append(p)
                p += size
                continue
            if vals is None:
                vals = draws.tolist()
            seen: list[int] = []
            q = p
            while len(seen) < size and q < len(vals):
                if vals[q] not in seen:
                    seen.append(vals[q])
                q += 1
            if len(seen) < size:
                break                       # the draws run out mid-sample
            fixed.append((len(starts), seen))
            starts.append(p)
            p = q
        out = draws[np.add.outer(np.array(starts, dtype=np.intp),
                                 np.arange(size))]
        for row, seen in fixed:
            out[row] = seen
        return out, p


def _sample_rows(n: int, size: int, count: int, seed: int,
                 per_batch: int = CAMPAIGN_BATCH):
    """The picks of `count` successive `random.Random(seed).sample(pop,
    size)` calls on a population of n items, as index arrays of shape
    (rows, size), per_batch rows each except perhaps the last."""
    import numpy as np
    if not 0 <= size <= n:
        raise ValueError("Sample larger than population or is negative")
    wants = [min(per_batch, count - first)
             for first in range(0, count, per_batch)]
    if size == 0:                      # sample() reads no word at all
        yield from (np.empty((want, 0), dtype=np.intp) for want in wants)
        return
    method = (_PoolDraws if n <= _setsize(size) else _SetDraws)(n, size)
    rng = random.Random(seed)
    draws = np.empty(0, dtype=np.intp)
    for want in wants:
        while True:
            rows, used = method.cut(draws, want)
            if len(rows) == want:
                break
            short = ((want - len(rows)) * method.draws_per_sample * 1.03
                     + 2 * size - (len(draws) - used))
            words = math.ceil(max(short, size) * method.words_per_draw) + 16
            draws = np.concatenate([draws, method.decode(
                _read_words(rng, words))])
        draws = draws[used:]
        yield rows


def _sampled_batch(chosen, lead: int) -> _InstanceBatch:
    """Sampled instances as a batch: `chosen` holds the picked vertices in
    draw order, the `lead` forbidden ones first, then the pair ends two by
    two."""
    import numpy as np
    # a pair as one key, src in the high half, so that sorting a row of
    # keys sorts its pairs (vertex ids are far below 2^32)
    a = chosen[:, lead::2].astype(np.uint64)
    b = chosen[:, lead + 1::2].astype(np.uint64)
    half = np.uint64(32)
    key = np.sort((np.minimum(a, b) << half) | np.maximum(a, b), axis=1)
    batch = _InstanceBatch(np.empty(chosen.shape, dtype=np.uint64), lead)
    batch.forb[:] = chosen[:, :lead]
    np.right_shift(key, half, out=batch.src)
    np.bitwise_and(key, np.uint64(0xFFFFFFFF), out=batch.dst)
    return batch


def _sampled_batches(vertex_ids: Sequence[int], k: int, strong: bool,
                     n: int, seed: int, per_batch: int = CAMPAIGN_BATCH
                     ) -> Iterator[_InstanceBatch]:
    """n seeded instances: row r is `random.Random(seed).sample(vertex_ids,
    2k + strong)` call number r, with the forbidden vertex first when
    strong, as `_InstanceBatch`es of per_batch rows (the last may hold
    fewer)."""
    import numpy as np
    ids = np.array(vertex_ids, dtype=np.int64)
    size = 2 * k + (1 if strong else 0)
    for rows in _sample_rows(len(ids), size, n, seed, per_batch):
        yield _sampled_batch(ids[rows], 1 if strong else 0)


# -- verification campaigns ---------------------------------------------------


def verify_k_linked(g: Graph, k: int, mode: str = "exhaustive",
                    symmetry: Optional[int] = None,
                    samples: int = 10 ** 6, seed: int = 0,
                    budget: int = DEFAULT_BUDGET, jobs: int = 1,
                    progress=None) -> Verdict:
    """Is every set of 2k vertices linked under every pairing?

    mode "exhaustive" sweeps all instances; passing `symmetry` = d (with g
    the d-cube graph, else ValueError) sweeps only canonical
    representatives under the hyperoctahedral group and reports the orbit
    count.  mode "sampled" draws `samples` seeded instances.
    """
    return _verify(g, k, mode, symmetry, samples, seed, budget, jobs,
                   strong=False, progress=progress)


def verify_strongly_linked(g: Graph, k: int, mode: str = "exhaustive",
                           symmetry: Optional[int] = None,
                           samples: int = 10 ** 6, seed: int = 0,
                           budget: int = DEFAULT_BUDGET, jobs: int = 1,
                           progress=None) -> Verdict:
    """Like verify_k_linked over 2k+1 marked vertices: each choice of the
    odd vertex out is left unpaired and every path must avoid it."""
    return _verify(g, k, mode, symmetry, samples, seed, budget, jobs,
                   strong=True, progress=progress)


def _verify(g: Graph, k: int, mode: str, symmetry: Optional[int],
            samples: int, seed: int, budget: int, jobs: int,
            strong: bool, progress=None) -> Verdict:
    size = 2 * k + (1 if strong else 0)
    ids = sorted(g.vertices())
    if len(ids) < size:
        raise ValueError(f"graph has {len(ids)} vertices, need {size}")
    if symmetry is not None:
        # the orbit sweep walks the d-cube's vertex ids under its group,
        # which says nothing about any other graph
        if g.n != 1 << symmetry or g != cube_graph(symmetry):
            raise ValueError(f"symmetry={symmetry} needs the "
                             f"{symmetry}-cube graph")
    t0 = time.perf_counter()
    detail: dict = {}
    if mode == "exhaustive":
        seed = None
        if symmetry is not None:
            from .symmetry import canonical_marked_instances
            batches, detail = canonical_marked_instances(symmetry, k, strong)
        else:
            batches = _linked_batches(ids, k, strong, SWEEP_BATCH)
    elif mode == "sampled":
        if symmetry is not None:
            raise ValueError("symmetry applies to exhaustive mode only")
        batches = _sampled_batches(ids, k, strong, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    run = campaign(batches, _LinkedCheck(g.adj, g.active, budget), jobs,
                   progress)
    if run.witness is not None and symmetry is not None:
        # the orbit counts fill in as the sweep streams; they cover all of
        # it, past the witness too
        for _ in batches:
            pass
    ms = int((time.perf_counter() - t0) * 1000)
    if run.witness is not None:
        subset, forb, pr = run.witness
        return Verdict("counterexample", run.checked,
                       LinkageProblem(g, pr, frozenset(forb)), ms, seed,
                       detail)
    return Verdict("verified" if mode == "exhaustive" else "sampled_pass",
                   run.checked, None, ms, seed, detail)


@dataclass(frozen=True)
class _LinkedCheck:
    """Campaign check: an instance passes iff its pairing is linked."""
    adj: tuple[int, ...]
    active: int
    budget: int

    def __call__(self, inst: Instance, tally: dict) -> Optional[Instance]:
        subset, forb, pr = inst
        if _solve_core(self.adj, self.active, pr, mask_of(forb),
                       self.budget) is None:
            return inst
        return None

    def passes(self, batch: _InstanceBatch):
        """The batch prefilter: a bool array marking the instances greedy
        links, each of which the call above passes too; None when the
        graph has more than 64 vertices."""
        if len(self.adj) > 64:
            return None
        return _greedy_passes(self.adj, self.active, batch)


# -- the campaign engine --------------------------------------------------------


@dataclass
class CampaignRun:
    """What a campaign found: instances checked up to and including the
    first witness in stream order (or all of them), that witness, and the
    check's tallies and router branch counts summed over the same span."""
    checked: int = 0
    witness: Any = None
    tally: dict = field(default_factory=dict)
    branches: dict = field(default_factory=dict)


def _run_batch(check: Callable[[Any, dict], Any],
               batch: Sequence) -> CampaignRun:
    """Check one batch in order, stopping at its first witness.  The rows
    the check's `passes` prefilter marks are counted without a call.
    Router branches are counted in a fresh linker.BRANCH_COUNTER; the
    previous counter is put back afterwards."""
    from . import linker        # linker imports oracle at module level
    out = CampaignRun()
    prefilter = getattr(check, "passes", None)
    passed = prefilter(batch) if prefilter is not None else None
    todo = (range(len(batch)) if passed is None
            else (~passed).nonzero()[0].tolist())
    out.checked = len(batch)
    saved = linker.BRANCH_COUNTER
    linker.BRANCH_COUNTER = out.branches
    try:
        for i in todo:
            out.witness = check(batch[i], out.tally)
            if out.witness is not None:
                out.checked = i + 1
                break
    finally:
        linker.BRANCH_COUNTER = saved
    return out


def campaign(batches: Iterable[Sequence], check: Callable[[Any, dict], Any],
             jobs: int = 1, progress=None) -> CampaignRun:
    """Run `check(inst, tally)` over a stream of instances, given as a
    stream of `_InstanceBatch`es (a check with no prefilter takes any
    sequence of instances as a batch).  The check returns None on a pass
    and a witness otherwise, and may count outcomes in `tally`.  It may
    also offer `passes(batch)`, a bool array marking instances it would
    pass without tallying anything (or None); those are counted as
    checked and not called.

    Batches are read lazily.  With jobs > 1 they go to a process pool and
    come back in stream order, so the result is the same for every job
    count: the first witness in stream order wins, and every count stops
    at it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return _collect((_run_batch(check, b) for b in batches), progress)
    import multiprocessing
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        return _collect(pool.imap(functools.partial(_run_batch, check),
                                  batches), progress)


def _collect(results: Iterable[CampaignRun], progress) -> CampaignRun:
    """Sum batch results in stream order up to the first witness."""
    run = CampaignRun()
    for got in results:
        run.checked += got.checked
        for into, counts in ((run.tally, got.tally),
                             (run.branches, got.branches)):
            for key, n in counts.items():
                into[key] = into.get(key, 0) + n
        if got.witness is not None:
            run.witness = got.witness
            break
        if (progress is not None and run.checked // PROGRESS_EVERY
                > (run.checked - got.checked) // PROGRESS_EVERY):
            progress(run.checked)
    return run


# -- separators, K_{2,3}, short pairs ------------------------------------------


def enumerate_separators(g: Graph, size: int) -> list[tuple[int, ...]]:
    """All vertex sets of the given size whose removal disconnects g."""
    ids = sorted(g.vertices())
    if size > len(ids) - 2:
        raise ValueError("separator size must leave at least two vertices")
    out = []
    for combo in itertools.combinations(ids, size):
        rest = g.active & ~mask_of(combo)
        if not connected_within(g, rest):
            out.append(combo)
    return out


def k23_witness(g: Graph) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The first pair u < v (lexicographically) sharing at least three
    neighbours, with the three least of them; None when no pair does."""
    ids = sorted(g.vertices())
    for i, u in enumerate(ids):
        au = g.adj[u]
        for v in ids[i + 1:]:
            common = au & g.adj[v]
            if common.bit_count() >= 3:
                return u, v, tuple(itertools.islice(bits(common), 3))
    return None


def short_distance_pairs(f_graph: Graph, x: Sequence[int],
                         y: Sequence[tuple[int, int]]) -> set[int]:
    """Indices of pairs in y joined by an X-valid path inside f_graph
    (inner vertices avoid all of X)."""
    xs = set(x)
    active = set(bits(f_graph.active))
    if not xs <= active:
        raise ValueError("X must lie inside the facet graph")
    out = set()
    for i, (s, t) in enumerate(y):
        prob = LinkageProblem(f_graph, ((s, t),), frozenset(xs - {s, t}))
        if solve_linkage(prob) is not None:
            out.add(i)
    return out
