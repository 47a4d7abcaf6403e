"""Binary d-cube primitives.

A vertex of the d-cube is a d-bit int.  A face is the set of vertices that
agree with `fixed_values` on the coordinates in `fixed_mask`; its dimension
is d minus the number of fixed coordinates.  Everything downstream (complex
construction, projections, the routing procedures) reduces to these few
mask operations.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, NamedTuple, Optional

from .graphs import Graph

# Vertices are plain ints; ops that need the ambient dimension take d.
CubeVertex = int

MAX_DIM = 16


def _check_dim(d: int) -> None:
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension {d} outside 1..{MAX_DIM}")


def _check_vertex(d: int, v: int) -> None:
    if v < 0 or v >> d:
        raise ValueError(f"vertex {v} not a {d}-bit pattern")


class CubeFace(NamedTuple):
    """Face of the d-cube: vertices v with v & fixed_mask == fixed_values."""

    d: int
    fixed_mask: int
    fixed_values: int

    @property
    def face_dim(self) -> int:
        return self.d - self.fixed_mask.bit_count()

    @property
    def free_mask(self) -> int:
        return ((1 << self.d) - 1) & ~self.fixed_mask

    def contains(self, v: int) -> bool:
        return v & self.fixed_mask == self.fixed_values

    def contains_face(self, other: "CubeFace") -> bool:
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        return (other.fixed_mask & self.fixed_mask == self.fixed_mask
                and other.fixed_values & self.fixed_mask == self.fixed_values)

    def vertices(self) -> Iterator[int]:
        """Vertices of the face in ascending order."""
        free = [i for i in range(self.d) if (self.free_mask >> i) & 1]
        for x in range(1 << len(free)):
            v = self.fixed_values
            for j, c in enumerate(free):
                if (x >> j) & 1:
                    v |= 1 << c
            yield v

    def validate(self) -> "CubeFace":
        _check_dim(self.d)
        full = (1 << self.d) - 1
        if self.fixed_mask & ~full:
            raise ValueError("fixed_mask outside dimension")
        if self.fixed_values & ~self.fixed_mask:
            raise ValueError("fixed_values set outside fixed_mask")
        return self


def min_face(d: int, u: int, v: int) -> CubeFace:
    """Smallest face containing both u and v (fix every agreeing coordinate)."""
    _check_vertex(d, u)
    _check_vertex(d, v)
    mask = ((1 << d) - 1) & ~(u ^ v)
    return CubeFace(d, mask, u & mask)


class OppositeFacetPair(NamedTuple):
    """The two facets x_coord = 0 and x_coord = 1 of the d-cube."""

    d: int
    coord: int

    def facet(self, side: int) -> CubeFace:
        if side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        return CubeFace(self.d, 1 << self.coord, side << self.coord)

    def validate(self) -> "OppositeFacetPair":
        _check_dim(self.d)
        if not 0 <= self.coord < self.d:
            raise ValueError(f"coordinate {self.coord} outside dimension {self.d}")
        return self


def project(x: int, pair: OppositeFacetPair, side: int) -> int:
    """Projection onto the facet x_coord = side.

    Vertices of the opposite facet move along their cube edge; vertices
    already on the target facet stay put.
    """
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    _check_vertex(pair.d, x)
    bit = 1 << pair.coord
    return (x & ~bit) | (side * bit)


def associated_pairs(d: int, zone: Iterable[int]) -> tuple[OppositeFacetPair, ...]:
    """Opposite-facet pairs that some edge of the cube crosses with both
    endpoints in `zone`.  Ascending coordinate order."""
    zs = set(zone)
    for z in zs:
        _check_vertex(d, z)
    out = []
    for c in range(d):
        bit = 1 << c
        if any((z ^ bit) in zs for z in zs):
            out.append(OppositeFacetPair(d, c))
    return tuple(out)


def free_pair(d: int, zone: Iterable[int]) -> Optional[OppositeFacetPair]:
    """Least-coordinate opposite-facet pair not associated with `zone`,
    or None when every pair is associated."""
    assoc = {p.coord for p in associated_pairs(d, zone)}
    for c in range(d):
        if c not in assoc:
            return OppositeFacetPair(d, c)
    return None


def associated_counts_bulk(d: int, masks) -> "np.ndarray":
    """Number of associated opposite-facet pairs for each vertex-set bitmask
    in `masks` (one uint64 per set, bit v = vertex v present).  Vectorized so
    that million-subset sweeps of the |pairs| <= |Z| - 1 bound stay cheap;
    needs 2^d <= 64, i.e. d <= 6."""
    import numpy as np
    if not 1 <= d <= 6:
        raise ValueError("bulk counting supports d <= 6 only")
    m = np.ascontiguousarray(masks, dtype=np.uint64)
    out = np.zeros(m.shape, dtype=np.int64)
    width = 1 << d
    for c in range(d):
        step = 1 << c
        # positions whose coordinate c is 0, as a 2^d-bit block pattern
        block = (1 << step) - 1
        lo = 0
        pos = 0
        while pos < width:
            lo |= block << pos
            pos += 2 * step
        lo64 = np.uint64(lo)
        s64 = np.uint64(step)
        flipped = ((m & lo64) << s64) | ((m >> s64) & lo64)
        out += (m & flipped) != 0
    return out


@functools.lru_cache(maxsize=None)
def cube_graph(d: int) -> Graph:
    """Graph of the d-cube: vertex v adjacent to v ^ (1 << i).  Built once
    per d and shared, as a Graph is frozen."""
    _check_dim(d)
    n = 1 << d
    adj = tuple(
        sum(1 << (v ^ (1 << i)) for i in range(d))
        for v in range(n)
    )
    return Graph(n, adj, (1 << n) - 1)


def distance(u: int, v: int) -> int:
    """Hamming distance, which is the graph distance in any cube containing
    both vertices."""
    return (u ^ v).bit_count()


def faces_of_dim(d: int, k: int) -> Iterator[CubeFace]:
    """All k-faces of the d-cube.  Deterministic order: by fixed coordinate
    set (as ascending mask), then by fixed values."""
    _check_dim(d)
    if not 0 <= k <= d:
        raise ValueError(f"face dimension {k} outside 0..{d}")
    fixed = d - k
    full = (1 << d) - 1
    for mask in range(full + 1):
        if mask.bit_count() != fixed:
            continue
        vals = 0
        while True:
            yield CubeFace(d, mask, vals)
            if vals == mask:
                break
            vals = (vals - mask) & mask    # next submask trick, ascending
    return
