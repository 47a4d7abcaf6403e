"""Instance corpus: cube boundaries, facet-glued cube chains, vertex stars.

Labels carry the geometry: a cube vertex is labelled by its bit pattern,
a glued-chain vertex by (layer, bits) with layer 0..n along the chain and
bits ranging over the (d-1) cross coordinates.

`build_complex` builds each generated complex once per process and hands
the same object to every later caller of an equal spec, together with
everything memoized on it (its graph, stars, charts).  A complex is a
read-only value, so sharing it is safe; `from_file` complexes are read
from their file on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import cube
from .complexes import (ComplexError, PolytopalComplex, load_complex,
                        vertex_star)


@functools.lru_cache(maxsize=None)
def _cube_faces(d: int, chain: bool = False) -> tuple[tuple, ...]:
    """Per face dimension j < d, the j-faces of the d-cube in
    `cube.faces_of_dim` order, each as (fixed_mask, fixed_values, its
    vertex ids ascending).  The ids are the bit patterns, or with `chain`
    those of the first cube of a glued chain: pattern v becomes layer
    v & 1, cross bits v >> 1."""
    half = 1 << (d - 1)
    out = []
    for j in range(d):
        level = []
        for f in cube.faces_of_dim(d, j):
            ids = tuple(f.vertices())
            if chain:
                ids = tuple(sorted((v & 1) * half + (v >> 1) for v in ids))
            level.append((f.fixed_mask, f.fixed_values, ids))
        out.append(tuple(level))
    return tuple(out)


def cube_boundary(d: int) -> PolytopalComplex:
    """Boundary complex of the d-cube: all proper faces, labels = bit
    patterns (so vertex id == bit pattern)."""
    if not 2 <= d <= 6:
        raise ValueError(f"cube_boundary wants 2 <= d <= 6, got {d}")
    labels = list(range(1 << d))
    levels = [[verts for _, _, verts in level] for level in _cube_faces(d)]
    return PolytopalComplex(labels, levels, check=False)


def glued_cubes(d: int, n: int) -> PolytopalComplex:
    """Boundary complex of a chain of n d-cubes glued facet to facet.

    Cube c occupies layers c and c+1; the shared facet between consecutive
    cubes is identified by the identity on its cross coordinates and the
    interior copies are deleted from the face list.  Vertex (layer, bits)
    gets id layer * 2^(d-1) + bits.
    """
    if d < 3:
        raise ValueError(f"glued_cubes wants d >= 3, got {d}")
    if d > 6:
        raise ValueError(f"glued_cubes supports d <= 6, got {d}")
    if n < 2:
        raise ValueError(f"glued_cubes wants n >= 2, got {n}")
    half = 1 << (d - 1)
    labels = [(layer, b) for layer in range(n + 1) for b in range(half)]
    levels: list[set[tuple[int, ...]]] = []
    for j, faces in enumerate(_cube_faces(d, chain=True)):
        level = set()
        for mask, vals, ids in faces:
            cubes = range(n)
            # drop interior gluing facets: x_0 fixed, facing a neighbour
            if j == d - 1 and mask == 1:
                cubes = range(n - 1, n) if vals & 1 else range(1)
            # cube c's copy of a face is cube 0's, c layers further on
            for c in cubes:
                shift = c * half
                level.add(tuple(x + shift for x in ids) if shift else ids)
        levels.append(level)
    return PolytopalComplex(labels, [sorted(level) for level in levels],
                            check=False)


class VertexStar(NamedTuple):
    """A star subcomplex with its center marked."""

    complex: PolytopalComplex
    center: int


def star_instance(c: PolytopalComplex, s1: int) -> VertexStar:
    if not (c.vertex_mask >> s1) & 1:
        raise ComplexError(f"vertex {s1} not in complex")
    return VertexStar(vertex_star(c, s1), s1)


@dataclass(frozen=True)
class InstanceSpec:
    """What to build: a cube, a glued chain, a star, or a file to load."""

    kind: str
    dim: int = 0
    chain_length: int = 0
    path: Optional[str] = None

    KINDS = ("cube", "glued_chain", "star_of_vertex", "from_file")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind != "from_file" and self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.kind == "glued_chain" and self.chain_length < 2:
            raise ValueError("chain_length must be at least 2")
        if self.kind == "from_file" and not self.path:
            raise ValueError("from_file needs a path")


def build_complex(spec: InstanceSpec) -> PolytopalComplex:
    """The complex an InstanceSpec denotes (for star specs, the base).
    A generated complex is shared with every other caller in the process;
    a `from_file` one is loaded afresh."""
    if spec.kind == "from_file":
        return load_complex(spec.path)
    if spec.kind == "cube" or spec.chain_length < 2:
        return _generated(spec.dim, 0)
    return _generated(spec.dim, spec.chain_length)


@functools.lru_cache(maxsize=None)
def _generated(dim: int, chain_length: int) -> PolytopalComplex:
    """The d-cube boundary (chain_length 0) or a glued chain, built on the
    first call only.  A refused size raises on every call, since a raise
    is not cached."""
    if chain_length:
        return glued_cubes(dim, chain_length)
    return cube_boundary(dim)


def default_star_center(spec: InstanceSpec) -> int:
    """Center used by star_of_vertex specs: vertex 0 of a cube; for a glued
    chain, the least vertex on the first gluing facet, whose star straddles
    both summands."""
    if spec.chain_length >= 2:
        return 1 << (spec.dim - 1)
    return 0


def build_star(spec: InstanceSpec) -> VertexStar:
    if spec.kind != "star_of_vertex":
        raise ValueError("build_star needs a star_of_vertex spec")
    return star_instance(build_complex(spec), default_star_center(spec))
