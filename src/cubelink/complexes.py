"""Polytopal complexes over a fixed vertex universe.

A complex stores a label per vertex id and, per dimension, the faces as
sorted tuples of vertex ids.  Subcomplex operations (star, antistar, link,
induced) return complexes over the *same* label universe with a subset of
the faces, so vertex ids stay stable across every derived object.  That is
what lets the routing code track terminals through stars, facets and ridges
without translation tables.

Lattice queries are memoized on the complex they are asked of: `star`,
`vertex_star`, `link`, the facet-ridge dual graph, `chart` and `graph` are
computed once per complex and argument, and the same object is returned on
every later call; so are `vertex_ids`, `vertex_mask` and `facets()`.  A
reused star keeps its own charts, graph and sub-stars.  A subcomplex
shares the face tuples of its parent instead of copying them.
Complexes are immutable: a returned complex (or its `faces`) must never be
mutated, since every later caller of the same query would see the change.
A complex pickles as its labels and levels only, and its memos are rebuilt
on the other side as they are asked for.

Cube structure on a face is recovered by a chart: a certified bijection
between the face's vertices and m-bit patterns under which complex edges
are exactly bit flips.  Charts are how the generic lattice talks to the
bit-twiddling primitives in cube.py.
"""

from __future__ import annotations

import functools
import json
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .cube import CubeFace
from .graphs import (Graph, bfs_distances, bits, connected_within,
                     graph_from_edges, mask_of, shortest_path,
                     vertex_connectivity)


class ComplexError(ValueError):
    pass


class NotCubicalError(ComplexError):
    """A face was asked to behave like a cube and is not one."""


class FaceHandle(NamedTuple):
    dim: int
    index: int


class PolytopalComplex:
    """Face lattice levels over labelled vertices.

    `labels[i]` is the caller's name for vertex id i (bit pattern, tuple,
    string; anything hashable).  `faces[j]` lists the j-faces as sorted
    vertex-id tuples, in a deterministic order fixed at construction.
    Not every label has to occur in the complex; `vertex_ids` are the ids
    that actually appear as 0-faces.
    """

    def __init__(self, labels: Sequence, faces_by_dim: Iterable[Iterable[Sequence[int]]],
                 check: bool = True):
        self._set_levels(tuple(labels), [tuple(tuple(sorted(f)) for f in level)
                                         for level in faces_by_dim])
        if check:
            self._check_basic()

    @classmethod
    def _subcomplex(cls, parent: "PolytopalComplex",
                    levels: Iterable[Iterable[tuple[int, ...]]]) -> "PolytopalComplex":
        """Complex over the parent's labels whose levels hold face tuples of
        the parent itself: they are sorted already and are shared, not
        copied."""
        return _from_levels(parent.labels, [tuple(level) for level in levels])

    def _set_levels(self, labels: tuple, levels: list) -> None:
        while levels and not levels[-1]:
            levels.pop()
        self.labels = labels
        self.faces: tuple[tuple[tuple[int, ...], ...], ...] = tuple(levels)
        # face tuple -> index, per level, built on the first lookup
        self._index: list[Optional[dict[tuple[int, ...], int]]] = \
            [None] * len(self.faces)
        self._graph: Optional[Graph] = None
        self._charts: dict[FaceHandle, "FacetChart"] = {}
        # memoized lattice queries, keyed by query name and argument
        self._memo: dict = {}

    def __reduce__(self):
        # labels and levels only: the memoized queries, charts, graph and
        # face indices are rebuilt on demand, so a warm complex pickles as
        # small as a cold one (campaign workers get one with every batch)
        return _from_levels, (self.labels, self.faces)

    def _level_index(self, j: int) -> dict[tuple[int, ...], int]:
        idx = self._index[j]
        if idx is None:
            idx = self._index[j] = {f: i for i, f in enumerate(self.faces[j])}
        return idx

    def _cached(self, key, build: Callable):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def _incident(self, j: int) -> dict[int, int]:
        """Vertex id -> bit mask of the indices of the j-faces holding it."""
        def build():
            inc: dict[int, int] = {}
            for i, f in enumerate(self.faces[j]):
                for v in f:
                    inc[v] = inc.get(v, 0) | (1 << i)
            return inc
        return self._cached(("incident", j), build)

    def _holding(self, vertices: Iterable[int], j: int) -> int:
        """Bit mask of the indices of the j-faces holding all the vertices."""
        inc = self._incident(j)
        m = (1 << len(self.faces[j])) - 1
        for v in vertices:
            m &= inc.get(v, 0)
        return m

    # -- construction-time sanity (cheap) ---------------------------------

    def _check_basic(self) -> None:
        n = len(self.labels)
        for j, level in enumerate(self.faces):
            if len(set(level)) != len(level):
                raise ComplexError(f"duplicate {j}-face")
            for f in level:
                if len(f) != len(set(f)):
                    raise ComplexError(f"repeated vertex in face {f}")
                if f and (f[0] < 0 or f[-1] >= n):
                    raise ComplexError(f"vertex id out of range in {f}")
                if j == 0 and len(f) != 1:
                    raise ComplexError("0-face must have exactly one vertex")
                if j == 1 and len(f) != 2:
                    raise ComplexError("1-face must have exactly two vertices")
                if len(f) < j + 1:
                    raise ComplexError(f"{j}-face {f} has too few vertices")
        vset = set(self.vertex_ids)
        for j, level in enumerate(self.faces):
            if j == 0:
                continue
            for f in level:
                for v in f:
                    if v not in vset:
                        raise ComplexError(f"face {f} uses vertex {v} with no 0-face")

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.faces) - 1

    @functools.cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        if not self.faces:
            return ()
        return tuple(f[0] for f in self.faces[0])

    @functools.cached_property
    def vertex_mask(self) -> int:
        return mask_of(self.vertex_ids)

    @property
    def num_vertices(self) -> int:
        return len(self.faces[0]) if self.faces else 0

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces)

    def face_vertices(self, h: FaceHandle) -> tuple[int, ...]:
        return self.faces[h.dim][h.index]

    def handle_of(self, vertices: Iterable[int]) -> Optional[FaceHandle]:
        key = tuple(sorted(vertices))
        j = len(key) - 1
        # a j-face has at least j+1 vertices, at most 2^j in the cubical
        # world; scan levels that could hold this cardinality
        for dim in range(min(j, self.dim), -1, -1):
            if len(key) < dim + 1:
                continue
            idx = self._level_index(dim).get(key)
            if idx is not None:
                return FaceHandle(dim, idx)
        return None

    def contains_face(self, vertices: Iterable[int]) -> bool:
        return self.handle_of(vertices) is not None

    def faces_of_dim(self, j: int) -> Iterator[FaceHandle]:
        if 0 <= j <= self.dim:
            for i in range(len(self.faces[j])):
                yield FaceHandle(j, i)

    def facets(self) -> tuple[FaceHandle, ...]:
        return self._facets

    @functools.cached_property
    def _facets(self) -> tuple[FaceHandle, ...]:
        return tuple(self.faces_of_dim(self.dim))

    def vertex_handle(self, v: int) -> FaceHandle:
        h = self.handle_of((v,))
        if h is None:
            raise ComplexError(f"vertex {v} not in complex")
        return h

    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = graph_from_edges(
                len(self.labels), self.faces[1] if self.dim >= 1 else (),
                active=self.vertex_mask)
        return self._graph

    def is_pure(self) -> bool:
        """Every face lies in some top-dimensional face."""
        if not self.faces:
            return True
        tops = [set(f) for f in self.faces[-1]]
        for level in self.faces[:-1]:
            for f in level:
                fs = set(f)
                if not any(fs <= t for t in tops):
                    return False
        return True

    # -- containment queries ------------------------------------------------

    def superfaces(self, h: FaceHandle, j: int) -> list[FaceHandle]:
        """j-faces of the complex containing h, ascending index."""
        return [FaceHandle(j, i)
                for i in bits(self._holding(self.face_vertices(h), j))]

    # -- full validation (loader, generators) -------------------------------

    def validate(self) -> "PolytopalComplex":
        """Closure and intersection checks beyond the constructor basics.

        Raises ComplexError when the levels do not form a polytopal
        complex: a missing boundary face, or two faces whose vertex-set
        intersection is not itself a face.
        """
        self._check_basic()
        all_faces: list[tuple[int, tuple[int, ...]]] = []
        for j, level in enumerate(self.faces):
            for f in level:
                all_faces.append((j, f))
        face_sets = {f: j for j, f in all_faces}
        # cubical vertex counts, then boundary cover: every j-face (j >= 1)
        # must be the union of exactly 2j of the (j-1)-faces
        for j, f in all_faces:
            if len(f) != 1 << j:
                raise NotCubicalError(
                    f"{j}-face {f} has {len(f)} vertices, want {1 << j}")
            if j == 0:
                continue
            fs = set(f)
            cover: set[int] = set()
            count = 0
            for g in self.faces[j - 1]:
                if set(g) <= fs:
                    cover.update(g)
                    count += 1
            if count != 2 * j or cover != fs:
                raise ComplexError(f"{j}-face {f} lacks a proper boundary")
        # meet closure: pairwise intersections are faces (or empty)
        sets = [(set(f), f) for _, f in all_faces]
        for a in range(len(sets)):
            fa, _ = sets[a]
            for b in range(a + 1, len(sets)):
                fb, _ = sets[b]
                cap = fa & fb
                if not cap:
                    continue
                key = tuple(sorted(cap))
                if key not in face_sets:
                    raise ComplexError(
                        f"intersection {key} of two faces is not a face")
        return self

    # -- charts --------------------------------------------------------------

    def chart(self, h: FaceHandle) -> "FacetChart":
        ch = self._charts.get(h)
        if ch is None:
            ch = FacetChart(self, h)
            self._charts[h] = ch
        return ch

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Compact JSON form.  Vertex ids are re-numbered 0..n-1 in the order
        of `vertex_ids` so absent universe labels do not leak into files."""
        vids = self.vertex_ids
        remap = {v: i for i, v in enumerate(vids)}
        labels = [_label_to_json(self.labels[v]) for v in vids]
        return {
            "d": self.dim,
            "vertices": labels,
            "faces": [
                [[remap[v] for v in f] for f in level]
                for level in self.faces
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)


def _from_levels(labels: tuple, levels) -> PolytopalComplex:
    """A complex over `labels` with levels of sorted face tuples, taken as
    they are: for subcomplexes and unpickling."""
    c = PolytopalComplex.__new__(PolytopalComplex)
    c._set_levels(labels, list(levels))
    return c


def _label_to_json(label):
    if isinstance(label, tuple):
        return list(label)
    return label


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(label)
    return label


def complex_from_json_dict(data: dict) -> PolytopalComplex:
    """Complex from its `to_json_dict` form.  Malformed input of any shape
    raises ComplexError."""
    try:
        d = data["d"]
        labels = [_label_from_json(x) for x in data["vertices"]]
        levels = data["faces"]
    except (KeyError, TypeError) as e:
        raise ComplexError(f"malformed complex JSON: {e}")
    if type(d) is not int or d < 0:
        raise ComplexError(f"d must be a non-negative integer, got {d!r}")
    for label in labels:
        try:
            hash(label)
        except TypeError:
            raise ComplexError(f"vertex label {label!r} is not hashable")
    if not isinstance(levels, list) or len(levels) != d + 1:
        raise ComplexError("faces must list every dimension 0..d")
    for level in levels:
        if not isinstance(level, list):
            raise ComplexError(f"a level of faces must be a list, got {level!r}")
        for f in level:
            if not isinstance(f, list) or any(type(v) is not int for v in f):
                raise ComplexError(
                    f"a face must be a list of integer vertex ids, got {f!r}")
    c = PolytopalComplex(labels, levels, check=True)
    if c.dim != d:
        raise ComplexError(f"declared dimension {d} but top faces have dim {c.dim}")
    if set(c.vertex_ids) != set(range(len(labels))):
        raise ComplexError("every listed vertex must appear as a 0-face")
    c.validate()
    for h in c.facets():
        c.chart(h)  # raises NotCubicalError if a facet is not a cube
    return c


def load_complex(path: str) -> PolytopalComplex:
    """The complex in a json file; an unreadable file is a ValueError, as
    is a malformed one."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read complex file: {e}") from None
    return complex_from_json_dict(data)


# -- subcomplex operations ---------------------------------------------------


def star(c: PolytopalComplex, h: FaceHandle) -> PolytopalComplex:
    """Faces containing h, together with all their faces.  Memoized on c."""
    return c._cached(("star", h), lambda: _build_star(c, h))


def _build_star(c: PolytopalComplex, h: FaceHandle) -> PolytopalComplex:
    core = c.face_vertices(h)
    # per level, a bit mask of the faces inside some maximal face holding
    # h.  Levels are walked from the top, so a face holding h that lies in
    # none of the maximal faces found so far is maximal itself.
    inside = [0] * len(c.faces)
    for j in range(c.dim, -1, -1):
        for i in bits(c._holding(core, j) & ~inside[j]):
            top = set(c.faces[j][i])
            for lv in range(j + 1):
                # faces touching no vertex outside top lie inside it
                outside = 0
                for v, m in c._incident(lv).items():
                    if v not in top:
                        outside |= m
                inside[lv] |= ((1 << len(c.faces[lv])) - 1) & ~outside
    return PolytopalComplex._subcomplex(
        c, [[level[i] for i in bits(inside[j])]
            for j, level in enumerate(c.faces)])


def induced_subcomplex(c: PolytopalComplex, vertices: Iterable[int]) -> PolytopalComplex:
    vs = set(vertices)
    return PolytopalComplex._subcomplex(
        c, [[f for f in level if vs.issuperset(f)] for level in c.faces])


def antistar(c: PolytopalComplex, h: FaceHandle) -> PolytopalComplex:
    """All faces disjoint from h."""
    avoid = set(c.face_vertices(h))
    return PolytopalComplex._subcomplex(
        c, [[f for f in level if avoid.isdisjoint(f)] for level in c.faces])


def link(c: PolytopalComplex, h: FaceHandle) -> PolytopalComplex:
    """Faces of the star of h disjoint from h.  Memoized on c."""
    def build():
        core = set(c.face_vertices(h))
        return PolytopalComplex._subcomplex(
            c, [[f for f in level if core.isdisjoint(f)]
                for level in star(c, h).faces])
    return c._cached(("link", h), build)


def vertex_star(c: PolytopalComplex, v: int) -> PolytopalComplex:
    return star(c, c.vertex_handle(v))


# -- strong connectivity and facet-ridge paths --------------------------------


def _dual_graph(c: PolytopalComplex) -> tuple[dict[tuple[int, int], FaceHandle],
                                              Graph]:
    """The facet-ridge dual graph, memoized on c: the shared ridge of each
    facet pair (index a < index b) whose intersection is a ridge of the
    complex, and the dual as a `Graph` on the facet indices."""
    def build():
        edges: dict[tuple[int, int], FaceHandle] = {}
        if c.dim >= 1:
            for ri in range(len(c.faces[c.dim - 1])):
                r = FaceHandle(c.dim - 1, ri)
                owners = [f.index for f in c.superfaces(r, c.dim)]
                for a in range(len(owners)):
                    for b in range(a + 1, len(owners)):
                        edges[(owners[a], owners[b])] = r
        k = len(c.faces[-1]) if c.faces else 0
        return edges, graph_from_edges(k, edges)
    return c._cached("dual", build)


def is_strongly_connected(c: PolytopalComplex) -> bool:
    """Pure, and any two facets joined by a facet-ridge path."""
    if not c.faces or not c.is_pure():
        return False
    g = _dual_graph(c)[1]
    return connected_within(g, g.active)


def facet_ridge_path(c: PolytopalComplex, start: FaceHandle, goal: FaceHandle,
                     avoid: Iterable[FaceHandle] = ()) -> Optional[list[FaceHandle]]:
    """Shortest facet-ridge path [F0, R01, F1, ..., Fk] from start to goal.

    `avoid` lists facets that may not appear (start/goal must not be in it).
    The facets are `shortest_path`'s on the dual graph, so ties resolve
    deterministically by facet index.  Returns None when no path exists.
    """
    d = c.dim
    if start.dim != d or goal.dim != d:
        raise ComplexError("facet_ridge_path wants top-dimensional faces")
    banned = set(avoid)
    if start in banned or goal in banned:
        raise ComplexError("endpoint in avoid set")
    dual, g = _dual_graph(c)
    seq = shortest_path(g, start.index, 1 << goal.index,
                        g.active & ~mask_of(h.index for h in banned))
    if seq is None:
        return None
    path: list[FaceHandle] = [FaceHandle(d, seq[0])]
    for a, b in zip(seq, seq[1:]):
        ridge = dual[(min(a, b), max(a, b))]
        path.append(ridge)
        path.append(FaceHandle(d, b))
    return path


# -- cube charts ---------------------------------------------------------------


class FacetChart:
    """Certified cube coordinates on one face of a complex.

    The base vertex (least id in the face) maps to bit pattern 0 and its
    in-face neighbours, in ascending id order, give the coordinate
    directions.  Construction verifies the face's graph is exactly a cube
    graph under this labelling and that every complex face inside is a
    subcube, so downstream code may treat chart bit patterns exactly like
    cube.py vertices.
    """

    def __init__(self, c: PolytopalComplex, h: FaceHandle):
        self.complex = c
        self.face = h
        self.m = h.dim
        verts = c.face_vertices(h)
        if len(verts) != 1 << self.m:
            raise NotCubicalError(f"face has {len(verts)} vertices, want {1 << self.m}")
        g = c.graph()
        region = mask_of(verts)
        base = verts[0]
        axes = sorted(bits(g.adj[base] & region))
        if len(axes) != self.m:
            raise NotCubicalError("base degree inside face is not the dimension")
        dist0 = bfs_distances(g, 1 << base, region)
        bits_of: dict[int, int] = {}
        for i, a in enumerate(axes):
            dist_a = bfs_distances(g, 1 << a, region)
            for v in verts:
                if dist_a.get(v, 99) == dist0.get(v, 99) - 1:
                    bits_of[v] = bits_of.get(v, 0) | (1 << i)
        bits_of[base] = 0
        for v in verts:
            bits_of.setdefault(v, 0)
        vid_of = [None] * (1 << self.m)
        for v, b in bits_of.items():
            if vid_of[b] is not None:
                raise NotCubicalError("vertex labelling is not a bijection")
            vid_of[b] = v
        # edge sets must match bit flips exactly
        for v in verts:
            want = {vid_of[bits_of[v] ^ (1 << i)] for i in range(self.m)}
            have = set(bits(g.adj[v] & region))
            if want != have:
                raise NotCubicalError("face graph is not a cube graph")
        self._bits = bits_of
        self._vid: tuple[int, ...] = tuple(vid_of)      # type: ignore
        # every complex face inside must be a subcube in these coordinates
        vset = set(verts)
        for j in range(self.m):
            for f in c.faces[j]:
                if not vset.issuperset(f):
                    continue
                pats = sorted(bits_of[v] for v in f)
                varying = 0
                for p in pats:
                    varying |= p ^ pats[0]
                if len(pats) != 1 << varying.bit_count() or any(
                        (p ^ pats[0]) & ~varying for p in pats):
                    raise NotCubicalError(f"inner face {f} is not a subcube")

    # bit pattern <-> vertex id

    def bits_of(self, vid: int) -> int:
        try:
            return self._bits[vid]
        except KeyError:
            raise ComplexError(f"vertex {vid} not on this face")

    def vid_of(self, pattern: int) -> int:
        if pattern < 0 or pattern >= 1 << self.m:
            raise ComplexError(f"pattern {pattern} outside chart")
        return self._vid[pattern]

    def vertices(self) -> tuple[int, ...]:
        return self._vid

    def contains(self, vid: int) -> bool:
        return vid in self._bits

    # cube faces <-> complex faces

    def subface_vertices(self, cf: CubeFace) -> tuple[int, ...]:
        return tuple(sorted(self._vid[b] for b in cf.vertices()))

    def handle_of_cube_face(self, cf: CubeFace) -> FaceHandle:
        h = self.complex.handle_of(self.subface_vertices(cf))
        if h is None:
            raise ComplexError("subcube is not a face of the complex")
        return h

    def cube_face_of(self, h: FaceHandle) -> CubeFace:
        """Chart coordinates of a complex face lying inside this chart."""
        pats = [self.bits_of(v) for v in self.complex.face_vertices(h)]
        varying = 0
        for p in pats:
            varying |= p ^ pats[0]
        full = (1 << self.m) - 1
        mask = full & ~varying
        return CubeFace(self.m, mask, pats[0] & mask)

    def opposite_vertex(self, vid: int) -> int:
        return self._vid[self.bits_of(vid) ^ ((1 << self.m) - 1)]

    def ridge(self, coord: int, side: int) -> FaceHandle:
        if not 0 <= coord < self.m:
            raise ComplexError("coordinate outside chart")
        cf = CubeFace(self.m, 1 << coord, side << coord)
        return self.handle_of_cube_face(cf)

    def ridge_coordinate(self, h: FaceHandle) -> tuple[int, int]:
        """(coordinate, side) of a ridge of this face."""
        cf = self.cube_face_of(h)
        if cf.fixed_mask.bit_count() != 1:
            raise ComplexError("not a ridge of this chart")
        coord = cf.fixed_mask.bit_length() - 1
        return coord, (cf.fixed_values >> coord) & 1

    def project(self, vid: int, coord: int, side: int) -> int:
        """Image of a face vertex under projection onto the ridge
        coordinate = side; identity when already there."""
        b = self.bits_of(vid)
        bit = 1 << coord
        return self._vid[(b & ~bit) | (side * bit)]

    def project_to(self, vid: int, ridge: FaceHandle) -> int:
        coord, side = self.ridge_coordinate(ridge)
        return self.project(vid, coord, side)


def other_facet_with_ridge(c: PolytopalComplex, ridge: FaceHandle,
                           facet: FaceHandle) -> FaceHandle:
    """The second facet containing a ridge.  Errors when the ridge is on the
    boundary of the complex (only one owner) or shared by more than two."""
    owners = c.superfaces(ridge, c.dim)
    if facet not in owners:
        raise ComplexError("facet does not contain the ridge")
    others = [f for f in owners if f != facet]
    if len(others) != 1:
        raise ComplexError(f"ridge has {len(owners)} facets, want exactly 2")
    return others[0]


# -- the star injection --------------------------------------------------------


def injection_into_antistar(star_c: PolytopalComplex, facet: FaceHandle,
                            s: int) -> dict[int, int]:
    """Injective map from V(facet) minus the vertex opposite s onto
    neighbours outside the facet, inside the star of s.

    For each ridge of the facet through s (in ascending chart-coordinate
    order) the vertices not yet covered are pushed across the neighbouring
    facet onto its opposite ridge.  The result pairs each vertex with one of
    its graph neighbours in V(star) minus V(facet), no two vertices sharing
    an image.

    Memoized on star_c per (facet, s), contract checks included on the first
    build: the returned dict is shared and must not be mutated.
    """
    return star_c._cached(("injection", facet, s),
                          lambda: _build_injection(star_c, facet, s))


def _build_injection(star_c: PolytopalComplex, facet: FaceHandle,
                     s: int) -> dict[int, int]:
    ch = star_c.chart(facet)
    if not ch.contains(s):
        raise ComplexError("s must lie on the facet")
    sbits = ch.bits_of(s)
    fverts = set(star_c.face_vertices(facet))
    out: dict[int, int] = {}
    covered: set[int] = set()
    g = star_c.graph()
    for coord in range(ch.m):
        side = (sbits >> coord) & 1
        ridge = ch.ridge(coord, side)
        rverts = star_c.face_vertices(ridge)
        nb_facet = other_facet_with_ridge(star_c, ridge, facet)
        nch = star_c.chart(nb_facet)
        ncoord, nside = nch.ridge_coordinate(ridge)
        for v in rverts:
            if v in covered:
                continue
            w = nch.project(v, ncoord, 1 - nside)
            out[v] = w
            covered.add(v)
    # contract checks: domain, neighbourliness, injectivity, disjoint image
    opposite = ch.opposite_vertex(s)
    if set(out) != fverts - {opposite}:
        raise ComplexError("injection domain mismatch")
    if len(set(out.values())) != len(out):
        raise ComplexError("injection is not injective")
    for v, w in out.items():
        if w in fverts or not g.has_edge(v, w):
            raise ComplexError("injection image must be a neighbour off the facet")
    return out


# -- the technical star lemma, checked -----------------------------------------


class TechnicalLemmaReport(NamedTuple):
    strongly_connected: bool          # star of s2 within the star of s1
    paths_avoid_f12: bool             # facet pairs joined off F12 (when >2 facets)
    antistar_connected: bool          # G(A12) nonempty and (d-3)-connected (when >1 facet)
    facet_count: int
    antistar_vertices: int
    antistar_connectivity: int

    @property
    def ok(self) -> bool:
        return (self.strongly_connected and self.paths_avoid_f12
                and self.antistar_connected)


def technical_lemma_check(s1_star: PolytopalComplex, s1: int, s2: int,
                          f1: FaceHandle, f12: FaceHandle) -> TechnicalLemmaReport:
    """Check the three structural claims about the star of s2 inside the
    star of s1 (dimension d-1 facets; d is the polytope dimension).

    Frame preconditions: s2 is a vertex of the star other than s1, f1 is a
    facet holding s1 but not s2, f12 holds both.  Violations raise.
    """
    d = s1_star.dim + 1
    if d < 4:
        raise ComplexError("technical lemma needs polytope dimension >= 4")
    vmask = s1_star.vertex_mask
    for v in (s1, s2):
        if not (vmask >> v) & 1:
            raise ComplexError(f"vertex {v} not in the star")
    if s1 == s2:
        raise ComplexError("s1 and s2 must differ")
    fv1 = set(s1_star.face_vertices(f1))
    fv12 = set(s1_star.face_vertices(f12))
    if s1 not in fv1 or s2 in fv1:
        raise ComplexError("f1 must contain s1 and avoid s2")
    if s1 not in fv12 or s2 not in fv12:
        raise ComplexError("f12 must contain both s1 and s2")

    s12 = star(s1_star, s1_star.vertex_handle(s2))
    facets12 = s12.facets()
    n_facets = len(facets12)

    sc = s12.dim == s1_star.dim and is_strongly_connected(s12)

    paths_ok = True
    if n_facets > 2:
        idx12 = None
        fv12_t = tuple(sorted(fv12))
        for h in facets12:
            if s12.face_vertices(h) == fv12_t:
                idx12 = h
                break
        if idx12 is None:
            raise ComplexError("f12 is not a facet of the star of s2")
        rest = [h for h in facets12 if h != idx12]
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                if facet_ridge_path(s12, rest[a], rest[b], avoid=(idx12,)) is None:
                    paths_ok = False

    anti_ok = True
    nv = 0
    kappa = 0
    if n_facets > 1:
        keep = set(s12.vertex_ids) - fv1 - fv12
        a12 = induced_subcomplex(s12, keep)
        nv = a12.num_vertices
        if nv == 0:
            anti_ok = False
        else:
            sub = a12.graph()
            kappa = vertex_connectivity(sub) if nv > 1 else 0
            need = d - 3
            if nv == 1:
                anti_ok = need <= 0
            else:
                anti_ok = kappa >= need
    return TechnicalLemmaReport(sc, paths_ok, anti_ok, n_facets, nv, kappa)
