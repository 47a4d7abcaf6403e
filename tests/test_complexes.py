"""Face lattices, subcomplexes, charts, and the structural star checks."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import contains_face
from cubelink.complexes import (ComplexError, NotCubicalError, _dual_graph,
                                antistar, complex_from_json_dict,
                                facet_ridge_path, induced_subcomplex,
                                injection_into_antistar,
                                is_strongly_connected, link, load_complex,
                                other_facet_with_ridge, star,
                                technical_lemma_check, vertex_star)
from cubelink.generators import (InstanceSpec, build_complex, cube_boundary,
                                 glued_cubes)
from cubelink.graphs import vertex_connectivity
from cubelink.linker import link_in_polytope
from cubelink.oracle import pairings


def test_cube_boundary_f_vector():
    c = cube_boundary(3)
    assert c.f_vector() == (8, 12, 6)
    assert c.dim == 2
    c4 = cube_boundary(4)
    assert c4.f_vector() == (16, 32, 24, 8)


def test_euler_characteristic_of_sphere():
    for d in (3, 4, 5):
        c = cube_boundary(d)
        chi = sum((-1) ** j * n for j, n in enumerate(c.f_vector()))
        assert chi == (2 if d % 2 else 0)       # boundary of a d-polytope


def test_graph_matches_cube_graph():
    from cubelink.cube import cube_graph
    c = cube_boundary(4)
    g = c.graph()
    h = cube_graph(4)
    assert g.active == h.active
    assert g.adj == h.adj


def test_face_queries():
    c = cube_boundary(3)
    h = c.vertex_handle(5)
    assert c.face_vertices(h) == (5,)
    top = c.facets()
    assert len(top) == 6
    assert all(len(c.face_vertices(f)) == 4 for f in top)
    assert contains_face(c, (0, 1))
    assert not contains_face(c, (0, 7))


def test_json_round_trip(tmp_path):
    c = glued_cubes(3, 2)
    data = c.to_json_dict()
    c2 = complex_from_json_dict(data)
    assert c2.f_vector() == c.f_vector()
    assert c2.dim == c.dim
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    c3 = load_complex(str(p))
    assert c3.f_vector() == c.f_vector()


def test_unreadable_complex_file_is_a_value_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(ValueError, match="cannot read complex file"):
        load_complex(missing)
    with pytest.raises(ValueError, match="cannot read complex file"):
        build_complex(InstanceSpec("from_file", path=missing))


def test_loader_rejects_non_lattice():
    # a square missing one edge: the 2-face is not covered by its boundary
    data = {"d": 2, "vertices": [0, 1, 2, 3],
            "faces": [[[0], [1], [2], [3]],
                      [[0, 1], [1, 2], [2, 3]],
                      [[0, 1, 2, 3]]]}
    with pytest.raises(ComplexError):
        complex_from_json_dict(data)


# JSON values of every shape, and valid complex files with one part replaced
# by such a value: the loader must answer each with a complex or a
# ComplexError, never another exception.
_JSON = hst.recursive(
    hst.none() | hst.booleans() | hst.integers(-2, 40) | hst.text(max_size=2)
    | hst.floats(allow_nan=False, allow_infinity=False),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=2), inner, max_size=3),
    max_leaves=12)
_VALID = [c.to_json_dict() for c in (cube_boundary(2), cube_boundary(3),
                                     glued_cubes(3, 2))]


@hst.composite
def _mutated_complex(draw):
    data = copy.deepcopy(draw(hst.sampled_from(_VALID)))
    value = draw(_JSON)
    where = draw(hst.sampled_from(["d", "vertices", "label", "faces", "level",
                                  "face", "vertex", "drop", "repeat"]))
    levels = data["faces"]
    j = draw(hst.integers(0, len(levels) - 1))
    i = draw(hst.integers(0, len(levels[j]) - 1))
    if where in ("d", "vertices", "faces"):
        data[where] = value
    elif where == "label":
        data["vertices"][i % len(data["vertices"])] = value
    elif where == "level":
        levels[j] = value
    elif where == "face":
        levels[j][i] = value
    elif where == "vertex":
        face = levels[j][i]
        face[draw(hst.integers(0, len(face) - 1))] = value
    elif where == "drop":
        del levels[j][i]
    else:
        levels[j].append(list(levels[j][i]))
    return data


@settings(max_examples=400, deadline=None, database=None)
@given(hst.one_of(_JSON, _mutated_complex()))
def test_loader_raises_only_complex_error(data):
    try:
        c = complex_from_json_dict(data)
    except ComplexError:
        return
    assert c.dim == data["d"]


def test_loader_rejects_non_cubical_facet():
    # a triangle is not a combinatorial 1-cube boundary cell at dim 2
    data = {"d": 2, "vertices": [0, 1, 2],
            "faces": [[[0], [1], [2]],
                      [[0, 1], [1, 2], [0, 2]],
                      [[0, 1, 2]]]}
    with pytest.raises(NotCubicalError):
        complex_from_json_dict(data)


def test_star_antistar_partition_vertices():
    c = cube_boundary(4)
    for v in (0, 5, 15):
        h = c.vertex_handle(v)
        st = star(c, h)
        asv = antistar(c, h)
        assert set(st.vertex_ids) | set(asv.vertex_ids) == set(c.vertex_ids)
        # star keeps parent labels
        assert v in st.vertex_ids
        assert v not in asv.vertex_ids


def test_link_faces_avoid_core_but_live_in_marked_faces():
    c = cube_boundary(4)
    h = c.vertex_handle(0)
    lk = link(c, h)
    st = star(c, h)
    assert 0 not in lk.vertex_ids
    assert set(lk.vertex_ids) <= set(st.vertex_ids)
    # every link vertex is a cube neighbour-or-diagonal inside some facet
    # holding 0, and the link graph is an induced subgraph of the parent
    g = c.graph()
    lg = lk.graph()
    for u in lk.vertex_ids:
        for v in lk.vertex_ids:
            if u < v and lg.has_edge(u, v):
                assert g.has_edge(u, v)


def test_vertex_star_facets_all_contain_centre():
    c = glued_cubes(4, 2)
    st = vertex_star(c, 8)
    for f in st.facets():
        assert 8 in st.face_vertices(f)


def _scan_subcomplex(c, h, with_core):
    """Reference star (with_core) or link of h by the plain subset scan:
    the faces inside some face that holds h, as levels of tuples."""
    core = set(c.face_vertices(h))
    marked = [set(f) for level in c.faces for f in level if core <= set(f)]
    levels = [tuple(f for f in level
                    if (with_core or not core & set(f))
                    and any(set(f) <= m for m in marked))
              for level in c.faces]
    while levels and not levels[-1]:
        levels.pop()
    return tuple(levels)


@pytest.mark.parametrize("make", [lambda: cube_boundary(5),
                                  lambda: glued_cubes(5, 2)])
def test_lattice_queries_are_memoized_and_share_faces(make):
    c = make()
    parent_faces = {f: f for level in c.faces for f in level}
    for v in c.vertex_ids:
        h = c.vertex_handle(v)
        sv, lk = vertex_star(c, v), link(c, h)
        assert star(c, h) is sv and vertex_star(c, v) is sv
        assert link(c, h) is lk
        assert sv.faces == _scan_subcomplex(c, h, True)
        assert lk.faces == _scan_subcomplex(c, h, False)
        for sub in (sv, lk):
            assert sub.labels is c.labels
            assert all(parent_faces[f] is f for level in sub.faces
                       for f in level)
            # no index is built before the first lookup
            assert all(idx is None for idx in sub._index)
            for j, level in enumerate(sub.faces):
                for i, f in enumerate(level):
                    assert sub.handle_of(reversed(f)) == (j, i)
        assert lk.handle_of((v,)) is None
        # a sub-star of a reused star, and its facet-ridge graph, are
        # memoized on that star
        w = next(u for u in sv.vertex_ids if u != v)
        assert vertex_star(sv, w) is vertex_star(sv, w)
        assert _dual_graph(sv) is _dual_graph(sv)


def test_induced_subcomplex_drops_everything_touching_removed():
    c = cube_boundary(3)
    sub = induced_subcomplex(c, set(c.vertex_ids) - {0})
    assert 0 not in sub.vertex_ids
    for level in sub.faces:
        for f in level:
            assert 0 not in f


def test_strong_connectivity_of_boundaries():
    for c in (cube_boundary(3), cube_boundary(4), glued_cubes(3, 2),
              glued_cubes(4, 2)):
        assert is_strongly_connected(c)
    # a single facet with its faces is trivially strongly connected;
    # two facets sharing only a vertex are not
    c3 = cube_boundary(3)
    sub = induced_subcomplex(c3, [0, 1, 2, 3, 4, 5, 6, 7])
    assert is_strongly_connected(sub)


def test_facet_ridge_path_endpoints_and_avoidance():
    c = cube_boundary(4)
    tops = c.facets()
    p = facet_ridge_path(c, tops[0], tops[-1])
    assert p is not None
    assert p[0] == tops[0] and p[-1] == tops[-1]
    # consecutive facets share a ridge
    for a, b in zip(p, p[1:]):
        shared = set(c.face_vertices(a)) & set(c.face_vertices(b))
        assert contains_face(c, tuple(sorted(shared)))
        assert len(shared) == 4                    # ridge of the 4-cube
    assert facet_ridge_path(c, tops[0], tops[0]) == [tops[0]]


def test_other_facet_with_ridge():
    c = cube_boundary(3)
    f = c.facets()[0]
    ridge_vs = tuple(sorted(set(c.face_vertices(f)) & set(
        c.face_vertices(c.facets()[2]))))
    if len(ridge_vs) == 2:
        h = c.handle_of(ridge_vs)
        g = other_facet_with_ridge(c, h, f)
        assert g != f
        assert set(ridge_vs) <= set(c.face_vertices(g))
    # a non-ridge face raises
    with pytest.raises(ComplexError):
        other_facet_with_ridge(c, c.vertex_handle(0), f)


def test_charts_are_cube_coordinates():
    c = glued_cubes(4, 2)
    for f in c.facets():
        ch = c.chart(f)
        fv = c.face_vertices(f)
        assert ch.m == 3
        seen = set()
        for v in fv:
            b = ch.bits_of(v)
            assert ch.vid_of(b) == v
            seen.add(b)
        assert seen == set(range(8))
        v0 = fv[0]
        o = ch.opposite_vertex(v0)
        assert ch.bits_of(o) == ch.bits_of(v0) ^ 7


def test_chart_projection_moves_across_one_ridge():
    c = cube_boundary(4)
    f = c.facets()[0]
    ch = c.chart(f)
    fv = c.face_vertices(f)
    for v in fv[:4]:
        for coord in range(3):
            side = (ch.bits_of(v) >> coord) & 1
            img = ch.project(v, coord, 1 - side)
            assert ch.bits_of(img) == ch.bits_of(v) ^ (1 << coord)
            assert ch.project(img, coord, 1 - side) == img


def test_ridge_handles_and_coordinates():
    c = cube_boundary(4)
    f = c.facets()[0]
    ch = c.chart(f)
    for coord in range(3):
        for side in (0, 1):
            r = ch.ridge(coord, side)
            rc, rs = ch.ridge_coordinate(r)
            assert (rc, rs) == (coord, side)
            rv = c.face_vertices(r)
            assert len(rv) == 4
            for v in rv:
                assert (ch.bits_of(v) >> coord) & 1 == side


def test_injection_into_antistar_is_injective_off_opposite():
    c = cube_boundary(4)
    st = vertex_star(c, 0)
    f = st.facets()[0]
    inj = injection_into_antistar(st, f, 0)
    fv = set(st.face_vertices(f))
    dom = set(inj)
    ch = st.chart(f)
    assert dom == fv - {ch.opposite_vertex(0)}
    vals = list(inj.values())
    assert len(set(vals)) == len(vals)
    for v, w in inj.items():
        assert w not in fv


def test_antistar_of_facet_connectivity():
    for c, d in ((cube_boundary(4), 4), (glued_cubes(4, 2), 4)):
        for f in c.facets():
            g = antistar(c, f).graph()
            assert vertex_connectivity(g) >= d - 2


def test_technical_frame_check_on_cube():
    c = cube_boundary(4)
    st = vertex_star(c, 0)
    tops = st.facets()
    s2 = 3                                        # diagonal on a 2-face at 0
    with12 = [h for h in tops if s2 in st.face_vertices(h)]
    without = [h for h in tops if s2 not in st.face_vertices(h)]
    rep = technical_lemma_check(st, 0, s2, without[0], with12[0])
    assert rep.ok
    # malformed frames raise
    with pytest.raises(ComplexError):
        technical_lemma_check(st, 0, s2, with12[0], with12[0])
    with pytest.raises(ComplexError):
        technical_lemma_check(st, 0, 0, without[0], with12[0])


def test_complex_pickles_as_labels_and_levels_only():
    # a campaign worker gets its complex pickled with every batch, so the
    # memoized lattice must not travel with it
    c = glued_cubes(5, 2)
    st = vertex_star(glued_cubes(5, 2), 16)
    cold = pickle.dumps(c), pickle.dumps(st)
    rng = random.Random(7)
    ids = sorted(c.vertex_ids)
    for _ in range(300):
        chosen = rng.sample(ids, 6)
        prs = list(pairings(tuple(chosen)))
        link_in_polytope(c, chosen, prs[rng.randrange(len(prs))])
    st = vertex_star(c, 16)
    for h in st.facets():
        st.chart(h)
    assert len(c._memo) > 1 and st._charts and c.facets()
    assert (pickle.dumps(c), pickle.dumps(st)) == cold
    for warm in (c, st):
        back = pickle.loads(pickle.dumps(warm))
        assert back.labels == warm.labels and back.faces == warm.faces
        assert back.graph() == warm.graph()
        assert back.facets() == warm.facets()
        assert back.vertex_mask == warm.vertex_mask
        assert vertex_star(back, 16).faces == vertex_star(warm, 16).faces
