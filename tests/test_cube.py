"""Cube primitive behaviour: faces, projections, associated pairs."""

import math
import random

import numpy as np
import pytest

from conftest import full_cube, neighbors, opposite_in_face, project_face
from cubelink.cube import (CubeFace, OppositeFacetPair, associated_counts_bulk,
                           associated_pairs, cube_graph, distance, faces_of_dim,
                           free_pair, min_face, project)


def test_face_membership_and_dim():
    f = CubeFace(4, 0b0011, 0b0001)     # x0 = 1, x1 = 0
    assert f.face_dim == 2
    vs = sorted(f.vertices())
    assert vs == [0b0001, 0b0101, 0b1001, 0b1101]
    for v in vs:
        assert f.contains(v)
    assert not f.contains(0b0000)


def test_full_cube_contains_everything():
    f = full_cube(3)
    assert sorted(f.vertices()) == list(range(8))
    assert f.face_dim == 3


def test_face_validation_rejects_stray_fixed_values():
    with pytest.raises(ValueError):
        CubeFace(3, 0b001, 0b110).validate()


def test_min_face_spans_difference():
    f = min_face(4, 0b0000, 0b0110)
    assert f.face_dim == 2
    assert f.contains(0b0000) and f.contains(0b0110)
    assert f.contains(0b0010) and f.contains(0b0100)
    assert not f.contains(0b1000)


def test_min_face_of_equal_vertices_is_a_point():
    f = min_face(3, 5, 5)
    assert f.face_dim == 0
    assert list(f.vertices()) == [5]


def test_opposite_in_face_is_an_involution():
    rng = random.Random(0)
    for _ in range(200):
        d = rng.randrange(2, 7)
        u = rng.randrange(1 << d)
        v = rng.randrange(1 << d)
        f = min_face(d, u, v)
        w = rng.choice(sorted(f.vertices()))
        o = opposite_in_face(w, f)
        assert f.contains(o)
        assert opposite_in_face(o, f) == w
        assert distance(w, o) == f.face_dim


def test_projection_flips_exactly_one_coordinate():
    pair = OppositeFacetPair(4, 2)
    assert project(0b0000, pair, 1) == 0b0100
    assert project(0b0100, pair, 1) == 0b0100     # already on target side
    assert project(0b0100, pair, 0) == 0b0000


def test_project_face_moves_whole_face():
    pair = OppositeFacetPair(3, 0)
    f = CubeFace(3, 0b001, 0b000)                  # the facet x0 = 0
    img = project_face(f, pair, 1)
    assert sorted(img.vertices()) == sorted(v | 1 for v in f.vertices())


def test_associated_pairs_definition():
    # zone {000, 001} crosses coordinate 0 only
    got = associated_pairs(3, [0b000, 0b001])
    assert [p.coord for p in got] == [0]
    # a singleton zone crosses nothing
    assert associated_pairs(3, [0b101]) == ()


def test_free_pair_picks_least_unassociated_coordinate():
    zone = [0b000, 0b001, 0b010]                   # coords 0 and 1 associated
    fp = free_pair(3, zone)
    assert fp is not None and fp.coord == 2
    # all coordinates associated: no free pair
    assert free_pair(2, [0b00, 0b01, 0b11]) is None


def test_associated_bound_small_exhaustive():
    # |associated pairs| <= |zone| - 1 for every nonempty zone of Q_3
    for m in range(1, 1 << 8):
        zone = [v for v in range(8) if (m >> v) & 1]
        assert len(associated_pairs(3, zone)) <= len(zone) - 1


def test_bulk_counts_match_scalar():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4, 5, 6):
        n = 1 << d
        if d <= 4:
            masks = np.arange(1, 1 << n, dtype=np.uint64)
        else:
            masks = rng.integers(1, 1 << min(n, 63), size=3000,
                                 dtype=np.uint64)
        counts = associated_counts_bulk(d, masks)
        take = min(60, len(masks))
        for i in rng.choice(len(masks), size=take, replace=False):
            zone = [v for v in range(n) if (int(masks[i]) >> v) & 1]
            assert counts[i] == len(associated_pairs(d, zone))


def test_cube_graph_degrees_and_edges():
    for d in (2, 3, 4):
        g = cube_graph(d)
        assert g.num_vertices == 1 << d
        assert all(g.degree(v) == d for v in g.vertices())
        assert g.num_edges == d * (1 << (d - 1))
        for v in g.vertices():
            assert sorted(neighbors(d, v)) == sorted(v ^ (1 << i)
                                                     for i in range(d))


def test_distance_is_graph_distance():
    from cubelink.graphs import bfs_distances
    g = cube_graph(4)
    dist = bfs_distances(g, 1 << 0)
    for v in range(16):
        assert dist[v] == distance(0, v)


def test_faces_of_dim_counts():
    for d in (2, 3, 4):
        for k in range(d + 1):
            want = math.comb(d, k) * (1 << (d - k))
            assert sum(1 for _ in faces_of_dim(d, k)) == want
