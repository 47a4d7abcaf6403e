import hashlib
import json

import pytest

from cubelink.complexes import ComplexError, is_strongly_connected
from cubelink.generators import (
    InstanceSpec,
    build_complex,
    build_star,
    cube_boundary,
    default_star_center,
    glued_cubes,
    star_instance,
)


def test_cube_boundary_f_vectors():
    assert cube_boundary(2).f_vector() == (4, 4)
    assert cube_boundary(3).f_vector() == (8, 12, 6)
    assert cube_boundary(4).f_vector() == (16, 32, 24, 8)
    assert cube_boundary(5).f_vector() == (32, 80, 80, 40, 10)


def test_generated_faces_and_labels_pinned():
    # recorded with the CubeFace.vertices() builders, before the levels
    # were shifted from one cached table of the cube's faces
    h = hashlib.sha256()
    built = [glued_cubes(d, n) for d in range(3, 7) for n in (2, 3)]
    built += [cube_boundary(d) for d in range(2, 7)]
    for c in built:
        h.update(json.dumps([c.labels, c.faces]).encode())
        h.update(b"\n")
    assert h.hexdigest() == (
        "d85db13ebe5e493c0c5f6574dc0f7c86cfeadfc4667ecef96955f03a48b4dec3")


def test_cube_boundary_dim_guard():
    with pytest.raises(ValueError):
        cube_boundary(1)
    with pytest.raises(ValueError):
        cube_boundary(7)


def test_glued_counts_small_dims():
    # two d-cubes sharing one facet: 2*2^d - 2^(d-1) vertices,
    # 2*2d - 2 facets (the shared facet is interior and dropped)
    for d in (3, 4, 5):
        c = glued_cubes(d, 2)
        fv = c.f_vector()
        assert fv[0] == 2 * (1 << d) - (1 << (d - 1))
        assert len(c.facets()) == 4 * d - 2
    assert glued_cubes(4, 2).f_vector()[0] == 24
    assert glued_cubes(5, 2).f_vector() == (48, 128, 136, 72, 18)


def test_glued_chain_lengths():
    # each gluing hides the shared facet from both sides
    for n in (2, 3, 4):
        c = glued_cubes(3, n)
        assert c.f_vector()[0] == 8 + 4 * (n - 1)
        assert len(c.facets()) == 6 * n - 2 * (n - 1)
    with pytest.raises(ValueError):
        glued_cubes(3, 1)
    with pytest.raises(ValueError):
        glued_cubes(2, 2)


def test_glued_chain_strongly_connected_and_valid():
    for d, n in ((3, 3), (4, 2), (5, 2)):
        c = glued_cubes(d, n)
        c.validate()
        assert is_strongly_connected(c)


def test_star_instance_contains_center():
    c = cube_boundary(4)
    st = star_instance(c, 5)
    assert st.center == 5
    assert (st.complex.vertex_mask >> 5) & 1
    for h in st.complex.facets():
        assert 5 in st.complex.face_vertices(h)
    with pytest.raises(ComplexError):
        star_instance(c, 99)


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec("torus", dim=3)
    with pytest.raises(ValueError):
        InstanceSpec("cube", dim=1)
    with pytest.raises(ValueError):
        InstanceSpec("glued_chain", dim=3, chain_length=1)
    with pytest.raises(ValueError):
        InstanceSpec("from_file")
    InstanceSpec("cube", dim=4)
    InstanceSpec("from_file", path="x.json")


def test_build_complex_dispatch(tmp_path):
    assert build_complex(InstanceSpec("cube", dim=3)).f_vector() == (8, 12, 6)
    assert build_complex(
        InstanceSpec("glued_chain", dim=3, chain_length=2)).f_vector()[0] == 12
    c = glued_cubes(3, 2)
    f = tmp_path / "bi.json"
    f.write_text(json.dumps(c.to_json_dict()))
    loaded = build_complex(InstanceSpec("from_file", path=str(f)))
    assert loaded.f_vector() == c.f_vector()


def test_equal_generated_specs_share_one_complex():
    # built once per process: a star spec shares its base with the plain
    # spec of the same complex, and a cube ignores its chain length
    bi = build_complex(InstanceSpec("glued_chain", dim=5, chain_length=2))
    assert build_complex(
        InstanceSpec("glued_chain", dim=5, chain_length=2)) is bi
    assert build_complex(
        InstanceSpec("star_of_vertex", dim=5, chain_length=2)) is bi
    q4 = build_complex(InstanceSpec("cube", dim=4))
    assert build_complex(InstanceSpec("cube", dim=4, chain_length=3)) is q4
    assert build_complex(InstanceSpec("star_of_vertex", dim=4)) is q4
    assert build_complex(InstanceSpec("cube", dim=5)) is not q4
    # the shared complex is the one the generators build
    assert bi.faces == glued_cubes(5, 2).faces
    assert q4.faces == cube_boundary(4).faces


def test_from_file_is_read_on_every_call(tmp_path):
    f = tmp_path / "c.json"
    spec = InstanceSpec("from_file", path=str(f))
    f.write_text(cube_boundary(3).dumps())
    first = build_complex(spec)
    f.write_text(glued_cubes(3, 2).dumps())
    second = build_complex(spec)
    assert first.f_vector() == (8, 12, 6)
    assert second.f_vector() == glued_cubes(3, 2).f_vector()
    f.write_text("{")
    with pytest.raises(ValueError):
        build_complex(spec)


def test_default_star_center():
    assert default_star_center(InstanceSpec("star_of_vertex", dim=5)) == 0
    # chain stars sit on the gluing facet so they straddle both cubes
    spec = InstanceSpec("star_of_vertex", dim=4, chain_length=2)
    assert default_star_center(spec) == 8
    st = build_star(spec)
    assert st.center == 8
    base = build_complex(spec)
    on_center = [h for h in base.facets()
                 if st.center in base.face_vertices(h)]
    assert len(on_center) == len(st.complex.facets())


def test_build_star_guard():
    with pytest.raises(ValueError):
        build_star(InstanceSpec("cube", dim=4))
