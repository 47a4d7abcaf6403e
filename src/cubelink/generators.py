"""Instance corpus: cube boundaries, facet-glued cube chains, vertex stars.

Labels carry the geometry: a cube vertex is labelled by its bit pattern,
a glued-chain vertex by (layer, bits) with layer 0..n along the chain and
bits ranging over the (d-1) cross coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import cube
from .complexes import (ComplexError, PolytopalComplex,
                        complex_from_json_dict, vertex_star)


def cube_boundary(d: int) -> PolytopalComplex:
    """Boundary complex of the d-cube: all proper faces, labels = bit
    patterns (so vertex id == bit pattern)."""
    if not 2 <= d <= 6:
        raise ValueError(f"cube_boundary wants 2 <= d <= 6, got {d}")
    labels = list(range(1 << d))
    levels = []
    for j in range(d):
        levels.append([tuple(sorted(f.vertices())) for f in cube.faces_of_dim(d, j)])
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

    def vid(layer: int, b: int) -> int:
        return layer * half + b

    levels: list[set[tuple[int, ...]]] = [set() for _ in range(d)]
    for c in range(n):
        for j in range(d):
            for f in cube.faces_of_dim(d, j):
                # drop interior gluing facets: x_0 fixed, facing a neighbour
                if j == d - 1 and f.fixed_mask == 1:
                    side = f.fixed_values & 1
                    if (side == 1 and c < n - 1) or (side == 0 and c > 0):
                        continue
                verts = tuple(sorted(
                    vid(c + (v & 1), v >> 1) for v in f.vertices()))
                levels[j].add(verts)
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
    seed: int = 0
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
    """The complex an InstanceSpec denotes (for star specs, the base)."""
    if spec.kind == "cube":
        return cube_boundary(spec.dim)
    if spec.kind == "glued_chain":
        return glued_cubes(spec.dim, spec.chain_length)
    if spec.kind == "star_of_vertex":
        if spec.chain_length >= 2:
            return glued_cubes(spec.dim, spec.chain_length)
        return cube_boundary(spec.dim)
    if spec.kind == "from_file":
        try:
            with open(spec.path) as fh:
                return complex_from_json_dict(json.load(fh))
        except OSError as e:
            raise ValueError(f"cannot read complex file: {e}") from None
    raise AssertionError


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
