"""Hyperoctahedral symmetry reduction for cube campaigns.

The symmetry group of the d-cube graph is the signed permutation group:
permute the d coordinates, then flip any subset of them (order 2^d * d!).
Campaigns over all terminal configurations of Q_d only need one
representative per group orbit; this module enumerates canonical
representatives and their orbit sizes.  Canonical means lexicographically
least image, comparing instances as (sorted subset, forbidden part,
sorted pairing) tuples.

The subset stage is the heavy part.  Subsets become numpy uint64 bitmasks
over *reversed* vertex ids, under which "lexicographically least subset" is
exactly "numerically greatest mask".  One walk in lexicographic order marks
each orbit seen at its least member, in one vectorized step over the group;
the same image masks give each subset's setwise stabilizer.
"""

from __future__ import annotations

import itertools
import random
from math import comb, factorial
from typing import Optional, Sequence

import numpy as np

from .oracle import Instance, pairings


def group_order(d: int) -> int:
    return factorial(d) << d


def group_tables(d: int) -> list[tuple[int, ...]]:
    """All 2^d * d! vertex permutation tables of the signed permutation
    group acting on bit patterns: element (perm, flip) sends v to (bits of
    v moved by perm) xor flip.  Deterministic order, identity first."""
    if d > 6:
        raise ValueError("group enumeration supported for d <= 6")
    n = 1 << d
    out = []
    for perm in itertools.permutations(range(d)):
        base = [0] * n
        for v in range(n):
            w = 0
            for i in range(d):
                if (v >> i) & 1:
                    w |= 1 << perm[i]
            base[v] = w
        for flip in range(n):
            out.append(tuple(w ^ flip for w in base))
    return out


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


def apply_instance(table: Sequence[int], inst: Instance) -> Instance:
    """Image of a (subset, forbidden, pairing) instance, re-normalized."""
    subset, forb, pr = inst
    nsub = tuple(sorted(table[v] for v in subset))
    nforb = tuple(sorted(table[v] for v in forb))
    npr = tuple(sorted(tuple(sorted((table[a], table[b]))) for a, b in pr))
    return nsub, nforb, npr


def canonical_instance(d: int, inst: Instance) -> Instance:
    """Lexicographically least image of the instance under the group.

    The least image's subset must contain vertex 0, so only flips sending
    some subset vertex to 0 can produce it; that cuts the flip factor from
    2^d to the subset size and keeps d=6 workable without full tables.
    """
    subset = inst[0]
    if not subset:
        return inst
    best: Optional[Instance] = None
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


# -- vectorized canonical subsets ----------------------------------------------


def _image_bits(tables: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """(|G|, n) uint64 table of vertex image bits on reversed ids:
    1 << (n-1 - t[v])."""
    return np.uint64(1) << (np.uint64(n - 1) - np.asarray(tables, np.uint64))


def _image_masks(bits: np.ndarray, subset: Sequence[int]) -> np.ndarray:
    """Reversed-id masks of the subset's image under every group element."""
    return np.bitwise_or.reduce(bits[:, list(subset)], axis=1)


def _stabilizer(tables: list, bits: np.ndarray, subset: Sequence[int]) -> list:
    """Elements fixing the subset setwise (tables[0] is the identity)."""
    images = _image_masks(bits, subset)
    return [tables[g] for g in np.flatnonzero(images == images[0])]


def canonical_subsets(d: int, size: int,
                      tables: Optional[list] = None) -> tuple[list[tuple[int, ...]], list]:
    """All size-subsets of V(Q_d) that are lexicographically least in their
    orbit, in ascending order, plus the group tables used.

    Works on reversed vertex ids (u = n-1-v), where subset S precedes T
    lexicographically iff S's reversed bitmask exceeds T's.  The walk meets
    each orbit first at its least member and marks the orbit's masks seen.
    """
    n = 1 << d
    if n > 64:
        raise ValueError("mask sweep supports d <= 6")
    if tables is None:
        tables = group_tables(d)
    total = comb(n, size)
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), size)),
        dtype=np.uint8, count=total * size).reshape(total, size)
    own_bits = _image_bits([range(n)], n)[0]
    ascending = np.zeros(total, dtype=np.uint64)  # combinations reversed
    for column in combos[::-1].T:
        ascending |= own_bits[column]
    bits = _image_bits(tables, n)
    unseen = np.ones(total, dtype=bool)
    subs = []
    i = 0
    while i < total:
        i += int(unseen[i:].argmax())
        if not unseen[i]:
            break
        subs.append(tuple(combos[i].tolist()))
        images = np.sort(_image_masks(bits, subs[-1]))  # sorted: faster search
        unseen[total - 1 - np.searchsorted(ascending, images)] = False
        i += 1
    return subs, tables


def canonical_marked_instances(d: int, k: int,
                               strong: bool) -> tuple[list[Instance], dict]:
    """Canonical representatives of all terminal configurations: size-2k
    subsets with a pairing (plus, for strong, the choice of unpaired
    vertex), one per orbit of the signed permutation group.

    An instance is canonical iff its subset is the canonical subset of its
    orbit and the (forbidden, pairing) part is minimal under the subset's
    setwise stabilizer.  Returns (instances, info); info carries the orbit
    count, group order, and the labelled-instance total the orbits expand
    back to (orbit-stabilizer), which callers can check against the direct
    binomial count.
    """
    size = 2 * k + (1 if strong else 0)
    subs, tables = canonical_subsets(d, size)
    order = len(tables)
    bits = _image_bits(tables, 1 << d)
    out: list[Instance] = []
    labelled_total = 0
    for subset in subs:
        stab = _stabilizer(tables, bits, subset)
        if strong:
            insts = [(subset, (x,), pr)
                     for x in subset
                     for pr in pairings(tuple(v for v in subset if v != x))]
        else:
            insts = [(subset, (), pr) for pr in pairings(subset)]
        for inst in insts:
            images = [apply_instance(t, inst) for t in stab]
            if inst == min(images):
                out.append(inst)
                fixed = sum(1 for img in images if img == inst)
                labelled_total += order // fixed
    info = {
        "orbits": len(out),
        "group_order": order,
        "labelled_total": labelled_total,
    }
    return out, info
