"""Hyperoctahedral symmetry reduction for cube campaigns.

The symmetry group of the d-cube graph is the signed permutation group:
permute the d coordinates, then flip any subset of them (order 2^d * d!).
Campaigns over all terminal configurations of Q_d only need one
representative per group orbit; this module enumerates canonical
representatives and their orbit sizes.  Canonical means lexicographically
least image, comparing instances as (sorted subset, forbidden part,
sorted pairing) tuples.

The subset stage walks the m-subsets by lexicographic rank in the
combinatorial number system (Knuth, TAOCP 7.2.1.3) and keeps one byte per
rank, never the subsets themselves.  The group acts transitively, so every
orbit meets vertex 0 and its least member holds 0: the walk only needs the
C(n-1, m-1) subsets that hold 0, which are exactly the lexicographic
prefix of ranks below C(n-1, m-1).  The images of a subset S that hold 0
are its images under the elements sending some member of S to 0, m*|G|/n
of them (600 of 3,840 at d = 5, m = 5).  Each step unranks the least
rank not yet seen, which is the least member of a new orbit; gathers
those images from a precomputed (n, n, |G|/n) table (per vertex v and
member x, v's image under each element sending x to 0); ranks them all
at once from each member's count of smaller members; and marks those
ranks seen.  A table set that does not act transitively is refused with
ValueError.

The instance stage works on subset positions, a chunk of canonical
subsets at a time, and streams.  Every element of S's setwise stabilizer
sends a member of S to 0, so the same restricted images hold the whole
stabilizer.  Each stabilizer element permutes the positions, and an
instance is canonical iff no such permutation sends it to a
lexicographically smaller instance.  The empty subset is one orbit whose
stabilizer is the whole group.  A chunk's canonical instances become
the rows of `oracle._InstanceBatch`es in one gather of its subsets at
the shapes' positions, with no instance tuple built; the campaign reads
the batches as they come, and the orbit counts are summed chunk by
chunk.  The group tables and their maps to 0 are built once per
process.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, factorial
from typing import Iterator

import numpy as np

from .oracle import SWEEP_BATCH, _InstanceBatch, _rebatch, _shape_tables


def group_order(d: int) -> int:
    return factorial(d) << d


def group_tables(d: int) -> np.ndarray:
    """All 2^d * d! vertex permutation tables of the signed permutation
    group acting on bit patterns, one uint8 row each: element (perm, flip)
    sends v to (bits of v moved by perm) xor flip.  Rows run over perms in
    itertools order and, within a perm, over flips ascending, so the
    identity is row 0."""
    if d > 6:
        raise ValueError("group enumeration supported for d <= 6")
    v = np.arange(1 << d)
    perms = np.array(list(itertools.permutations(range(d))),
                     dtype=np.intp).reshape(-1, d)
    bits = (v[:, None] >> np.arange(d)) & 1                # (n, d)
    moved = (bits << perms[:, None, :]).sum(axis=2)        # (d!, n)
    return (moved[:, None, :] ^ v[None, :, None]).reshape(-1, 1 << d) \
        .astype(np.uint8)


# -- the rank-indexed orbit walk --------------------------------------------------


def _zero_maps(tables) -> tuple[np.ndarray, np.ndarray]:
    """The elements that send each vertex to 0, and everyone's images under
    them.  Row x of the (n, K) first array lists, ascending, the K = |G|/n
    elements that send x to 0; entry [v, x, j] of the contiguous (n, n, K)
    uint8 second array is v's image under the j-th of them.  ValueError
    unless every vertex has the same number of such elements, which a
    group has iff it acts transitively on the vertices."""
    tables = np.asarray(tables, dtype=np.uint8)
    order, n = tables.shape
    # the vertex each element sends to 0 (each table is a permutation)
    sent = (np.flatnonzero(tables.ravel() == 0) % n).astype(np.uint8)
    if (np.bincount(sent, minlength=n) * n != order).any():
        raise ValueError("the orbit walk needs a group acting transitively "
                         "on the vertices")
    to_zero = np.argsort(sent, kind="stable").reshape(n, -1)
    return to_zero, np.ascontiguousarray(tables[to_zero].transpose(2, 0, 1))


@functools.lru_cache(maxsize=None)
def _group(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`group_tables(d)` and its `_zero_maps`, built once per process and
    read-only."""
    tables = group_tables(d)
    out = (tables, *_zero_maps(tables))
    for a in out:
        a.flags.writeable = False
    return out


def _restricted_images(images: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """(B, m, m*K) images of a batch of m-subsets: entry [b, a, i*K + j] is
    the image of subsets[b, a] under the j-th element sending subsets[b, i]
    to 0, so each column is one image of the subset that holds 0."""
    b, m = subsets.shape
    n = len(images)
    rows = (subsets[:, :, None] * n + subsets[:, None, :]).ravel()
    return images.reshape(n * n, -1).take(rows, axis=0).reshape(b, m, -1)


def _rank_shares(n: int, m: int) -> np.ndarray:
    """Flat int64 table whose entry x*m + p is vertex x's share of the
    lexicographic rank of an m-subset of range(n) in which p members are
    smaller than x: the rank of c_0 < ... < c_{m-1} is
    C(n, m) - 1 - sum_p C(n-1-c_p, m-p), and the constant rides on the
    one member with p = 0."""
    last = comb(n, m) - 1
    return np.array([(last if p == 0 else 0) - comb(n - 1 - x, m - p)
                     for x in range(n) for p in range(m)], dtype=np.int64)


def _unrank(rank: int, n: int, m: int) -> tuple[int, ...]:
    """The m-subset of range(n) with the given lexicographic rank: each
    member is the least vertex whose share of C(n, m) - 1 - rank fits."""
    rest = comb(n, m) - 1 - rank
    out = []
    x = 0
    for p in range(m):
        while comb(n - 1 - x, m - p) > rest:
            x += 1
        rest -= comb(n - 1 - x, m - p)
        out.append(x)
        x += 1
    return tuple(out)


def _image_ranks(img: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Lexicographic rank of every image in an (m, columns) image array."""
    smaller = (img[:, None, :] > img[None, :, :]).sum(axis=1, dtype=np.uint8)
    at = np.multiply(img, len(img), dtype=np.intp)
    at += smaller
    return shares.take(at).sum(axis=0)


def _stabilizers(to_zero: np.ndarray, images: np.ndarray,
                 subsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The setwise stabilizers of a batch of m-subsets that hold vertex 0,
    as rows (owner, element, position permutation): element fixes
    subsets[owner] and sends its position p to position perms[row, p].
    Rows run over the batch in order.

    An element fixing a subset that holds 0 sends some member to 0, so
    the restricted images hold the whole stabilizer.  A column whose
    members add up to the subset's sum has its members' bit mask compared
    with the subset's; the empty subset is fixed by every element."""
    b, m = subsets.shape
    if m == 0:
        order = to_zero.size
        return (np.zeros(order, dtype=np.intp), np.arange(order),
                np.zeros((order, 0), dtype=np.intp))
    img = _restricted_images(images, subsets)
    sums = img.sum(axis=1, dtype=np.uint16)
    owner, col = divmod(np.flatnonzero(sums == subsets.sum(axis=1)[:, None]),
                        img.shape[2])
    cols = img[owner, :, col]                              # (rows, m)
    one = np.uint64(1)
    masks = np.bitwise_or.reduce(one << subsets.astype(np.uint64), axis=1)
    fixed = np.bitwise_or.reduce(one << cols.astype(np.uint64),
                                 axis=1) == masks[owner]
    owner, col, cols = owner[fixed], col[fixed], cols[fixed]
    k = to_zero.shape[1]
    element = to_zero[subsets[owner, col // k], col % k]
    # member p's image is at the position that counts the smaller images
    perms = (cols[:, :, None] > cols[:, None, :]).sum(axis=2)
    return owner, element, perms


def canonical_subsets(d: int, size: int,
                      tables=None) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """All size-subsets of V(Q_d) that are lexicographically least in their
    orbit, in ascending order, plus the group tables used.

    One byte per lexicographic rank of the subsets that hold vertex 0 says
    whether the walk has seen that subset.  The forward scan to the next
    unseen rank stops at its first hit, and that rank is the least member
    of an orbit not met yet.  The tables must act transitively
    (ValueError otherwise).
    """
    n = 1 << d
    if n > 64:
        raise ValueError("orbit walk supports d <= 6")
    if tables is None:
        tables, _, images = _group(d)
    else:
        _, images = _zero_maps(tables)
    if size == 0:
        return [()], tables
    shares = _rank_shares(n, size)
    total = comb(n - 1, size - 1)
    unseen = np.ones(total, dtype=bool)
    subs = []
    rank = 0
    while rank < total:
        rank += int(unseen[rank:].argmax())
        if not unseen[rank]:
            break
        subs.append(_unrank(rank, n, size))
        img = _restricted_images(images, np.array([subs[-1]], dtype=np.intp))
        unseen[_image_ranks(img[0], shares)] = False
        rank += 1
    return subs, tables


@functools.lru_cache(maxsize=None)
def _shape_codes(size: int, strong: bool) -> tuple[np.ndarray, ...]:
    """The instance shapes of `oracle._shape_tables` coded by their
    partner arrays (an unpaired position is its own partner) read in base
    `size`: (partner arrays, digit values, shape ids by code, sorted
    codes)."""
    shapes = _InstanceBatch(_shape_tables(size, strong), 1 if strong else 0)
    src, dst = shapes.src, shapes.dst
    partner = np.tile(np.arange(size), (len(shapes), 1))
    at = np.arange(len(shapes))[:, None]
    partner[at, src] = dst
    partner[at, dst] = src
    digit = size ** np.arange(size, dtype=np.int64)
    codes = partner @ digit
    by_code = np.argsort(codes)
    out = (partner, digit, by_code, codes[by_code])
    for a in out:
        a.flags.writeable = False
    return out


# canonical subsets whose stabilizers the instance stage takes at once
_CHUNK = 1024


def canonical_marked_instances(d: int, k: int, strong: bool
                               ) -> tuple[Iterator[_InstanceBatch], dict]:
    """Canonical representatives of all terminal configurations: size-2k
    subsets with a pairing (plus, for strong, the choice of unpaired
    vertex), one per orbit of the signed permutation group.

    An instance is canonical iff its subset is the canonical subset of its
    orbit and the (forbidden, pairing) part is minimal under the subset's
    setwise stabilizer.  Returns (batches, info).  batches streams the
    instances as `oracle._InstanceBatch`es of SWEEP_BATCH rows, in
    lexicographic order; it is read lazily, and the subset walk runs when
    it is first read (under --jobs, while the workers start).  info
    carries the orbit count, group order, and the labelled-instance total
    the orbits expand back to (orbit-stabilizer), which callers can check
    against the direct binomial count; its counts are summed as the
    stream runs and are complete once it is exhausted.
    """
    size = 2 * k + (1 if strong else 0)
    if size > 15:
        raise ValueError(f"canonical instances take at most 15 marked "
                         f"vertices, got {size}")
    if d > 6:
        raise ValueError("orbit walk supports d <= 6")
    info = {"orbits": 0, "group_order": group_order(d), "labelled_total": 0}
    return (_rebatch(_orbit_rows(d, size, strong, info), 1 if strong else 0,
                     SWEEP_BATCH), info)


def _orbit_rows(d: int, size: int, strong: bool,
                info: dict) -> Iterator[np.ndarray]:
    """The canonical instances on the canonical size-subsets as
    `_InstanceBatch` rows, one array per _CHUNK of subsets; a chunk's
    counts go into info before its rows come out.

    Instances are decided on subset positions.  Each shape is coded by
    `_shape_codes`; a stabilizer permutation g sends partner array q to
    q' with q'[g[p]] = g[q[p]].  Looking the image codes up among the
    shapes gives each element's image index of each shape; shapes are
    listed in lexicographic order, so a shape is canonical iff its index
    is the least in its subset's column, and its fixed count is the
    matches there.  The canonical (subset, shape) cells, row by row, are
    the instances in lexicographic order, and their rows come out of one
    gather of the chunk's subsets at the shapes' positions.
    """
    subs, _ = canonical_subsets(d, size)
    _, to_zero, images = _group(d)
    shapes = _shape_tables(size, strong)
    partner, digit, by_code, sorted_codes = _shape_codes(size, strong)
    own = np.arange(len(shapes))
    order = info["group_order"]
    subs = np.array(subs, dtype=np.intp).reshape(len(subs), size)
    for start in range(0, len(subs), _CHUNK):
        block = subs[start:start + _CHUNK]
        owner, _, perms = _stabilizers(to_zero, images, block)
        # code of q' = sum_p g[q[p]] * size**g[p]: (stabilizer rows, shapes)
        image_codes = np.zeros((len(perms), len(shapes)), dtype=np.int64)
        for p in range(size):
            image_codes += perms[:, partner[:, p]] * digit[perms[:, p]][:, None]
        index = by_code[np.searchsorted(sorted_codes, image_codes)]
        # every subset owns a row, the identity's
        starts = np.searchsorted(owner, np.arange(len(block)))
        least = np.minimum.reduceat(index, starts, axis=0)
        fixed = np.add.reduceat(index == own, starts, axis=0, dtype=np.int64)
        canonical = least == own
        info["labelled_total"] += int((order // fixed[canonical]).sum())
        at, shape = np.nonzero(canonical)
        info["orbits"] += len(at)
        yield block.astype(np.uint64).ravel().take(
            at[:, None] * size + shapes[shape])
