import csv
import hashlib
import io
import json
import multiprocessing.pool
import os
import re
import subprocess
import sys


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import cubelink.cli
from cubelink import cube, generators, oracle, symmetry
from cubelink.cli import main
from cubelink.generators import glued_cubes
from cubelink.linker import ProofStepError
from cubelink.oracle import InvalidLinkage


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_verify_q3_counterexample(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "3",
                         "--check", "k_linked", "--k", "2")
    assert code == 1
    assert rep["verdict"]["status"] == "counterexample"
    assert rep["verdict"]["checked"] <= 210
    assert rep["verdict"]["witness"]["pairs"] == [[0, 3], [1, 2]]


def test_verify_q4_strong_verified(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                         "--check", "strongly_linked", "--k", "2")
    assert code == 0
    assert rep["verdict"]["status"] == "verified"
    assert rep["verdict"]["checked"] == 65520
    assert rep["verdict"]["witness"] is None


def test_witness_in_report_iff_exit_one(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                         "--check", "k_linked", "--k", "2")
    assert code == 0 and rep["verdict"]["witness"] is None
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "3",
                         "--check", "k_linked", "--k", "2")
    assert code == 1 and rep["verdict"]["witness"] is not None


def test_sampled_determinism_modulo_elapsed(capsys):
    argv = ("verify", "--kind", "cube", "--dim", "4", "--check",
            "strongly_linked", "--k", "2", "--mode", "sampled",
            "--samples", "400", "--seed", "9")
    code1, rep1 = run_json(capsys, *argv)
    code2, rep2 = run_json(capsys, *argv)
    assert code1 == code2 == 0
    rep1["verdict"].pop("elapsed_ms")
    rep2["verdict"].pop("elapsed_ms")
    assert rep1 == rep2
    assert rep1["verdict"]["seed"] == 9


def test_lemma6_check(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                         "--check", "lemma6")
    assert code == 0
    assert rep["verdict"]["status"] == "verified"
    assert rep["verdict"]["checked"] == 65535


def test_separators_check(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "3",
                         "--check", "separators")
    assert code == 0
    assert rep["verdict"]["detail"]["separators"] == 8
    assert rep["verdict"]["checked"] == 56


def test_k23_check_on_glued(capsys):
    for dim in ("3", "4"):
        code, rep = run_json(capsys, "verify", "--kind", "glued_chain",
                             "--dim", dim, "--chain-length", "2",
                             "--check", "k23")
        assert code == 0 and rep["verdict"]["status"] == "verified"


def test_star_lemma_sampled(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "5",
                         "--check", "star_lemma", "--mode", "sampled",
                         "--samples", "300", "--seed", "4")
    assert code == 0
    assert rep["verdict"]["status"] == "sampled_pass"
    assert rep["verdict"]["checked"] == 300
    det = rep["verdict"]["detail"]
    assert det["linked"] + det["refused"] == 300
    assert det["branches"]


def test_technical_lemma_check(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                         "--check", "technical_lemma")
    assert code == 0
    assert rep["verdict"]["status"] == "verified"


def test_link_construct_check_sampled(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "glued_chain",
                         "--dim", "4", "--chain-length", "2",
                         "--check", "link_construct", "--mode", "sampled",
                         "--samples", "250", "--seed", "6")
    assert code == 0
    assert rep["verdict"]["checked"] == 250
    assert rep["verdict"]["detail"]["branches"]


def test_csv_and_text_formats(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "cube", "--dim", "3",
                       "--check", "separators", "--format", "csv")
    assert code == 0
    rows = dict(csv.reader(io.StringIO(out)))
    assert rows["verdict.status"] == "verified"
    assert rows["verdict.detail.separators"] == "8"
    code, out, _ = run(capsys, "verify", "--kind", "cube", "--dim", "3",
                       "--check", "separators", "--format", "text")
    assert code == 0
    assert "verdict.status: verified" in out


_PINNED_VERIFY = (
    ("--dim", "3", "--check", "k_linked", "--k", "2"),
    ("--dim", "4", "--check", "strongly_linked", "--k", "2", "--symmetry"),
    ("--kind", "glued_chain", "--dim", "5", "--chain-length", "2",
     "--check", "k_linked", "--k", "3", "--mode", "sampled",
     "--samples", "3000", "--seed", "3"),
    ("--dim", "4", "--check", "lemma6"),
    ("--dim", "5", "--check", "lemma6", "--mode", "sampled",
     "--samples", "5000", "--seed", "2"),
    ("--dim", "3", "--check", "separators"),
    ("--dim", "3", "--check", "separators", "--format", "csv"),
    ("--dim", "3", "--check", "separators", "--format", "text"),
    ("--kind", "glued_chain", "--dim", "4", "--chain-length", "2",
     "--check", "k23"),
    ("--dim", "5", "--check", "star_lemma", "--mode", "sampled",
     "--samples", "300", "--seed", "4"),
    ("--kind", "glued_chain", "--dim", "5", "--chain-length", "2",
     "--check", "star_lemma", "--mode", "sampled", "--samples", "300",
     "--seed", "5"),
    ("--dim", "4", "--check", "technical_lemma"),
    ("--kind", "glued_chain", "--dim", "4", "--chain-length", "2",
     "--check", "link_construct", "--mode", "sampled", "--samples", "300",
     "--seed", "6"),
    ("--dim", "5", "--check", "link_construct", "--mode", "sampled",
     "--samples", "300", "--seed", "8"),
)


def _clear_process_caches():
    """Empty every per-process cache of the package (the shared generated
    complexes with their lattice memos, the cube graphs, the sampler and
    prefilter tables, the symmetry group), as in a fresh process."""
    for mod in (cube, generators, oracle, symmetry):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_verify_reports_pinned(capsys, monkeypatch):
    # sha256 over the exit code and report of one verify run per check
    # (and per report format), the elapsed_ms values cut out; every check
    # needs a pinned report.  The list runs cold, then again on the
    # complexes and tables the first pass left behind
    assert ({argv[argv.index("--check") + 1] for argv in _PINNED_VERIFY}
            == set(cubelink.cli.CHECKS))
    monkeypatch.delenv("CUBELINK_JOBS", raising=False)
    _clear_process_caches()
    for _ in ("cold", "warm"):
        h = hashlib.sha256()
        for argv in _PINNED_VERIFY:
            code, out, _ = run(capsys, "verify", *argv)
            h.update(f"{code}\n".encode())
            h.update(re.sub(r"(elapsed_ms\W+)\d+", r"\1", out).encode())
        assert h.hexdigest() == (
            "4498c1d946d96876e985fa0e88413c03e278328c4a9551f295555d747f52c015")


def test_refused_dimension_exits_two_on_every_call(capsys):
    # a refused build is not cached: the second call is refused as well
    for kind in (("--kind", "cube"),
                 ("--kind", "glued_chain", "--chain-length", "2")):
        for _ in range(2):
            code, out, err = run(capsys, "verify", *kind, "--dim", "7",
                                 "--check", "k_linked", "--k", "4",
                                 "--mode", "sampled", "--samples", "10")
            assert code == 2 and out == "" and "d <= 6" in err


def test_construct_solve_adjacency_problem(tmp_path, capsys):
    prob = {
        "graph": [[1, 2], [0, 3], [0, 3], [1, 2]],
        "pairs": [[0, 3]],
        "forbidden": [1],
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 0
    assert rep["status"] == "linked"
    assert rep["paths"] == [[0, 2, 3]]
    assert rep["method"] == "solve_linkage"


def test_construct_reports_unlinked(tmp_path, capsys):
    prob = {
        "graph": [[1, 2], [0, 3], [0, 3], [1, 2]],
        "pairs": [[0, 3], [1, 2]],
        "forbidden": [],
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 1
    assert rep["status"] == "unlinked"
    assert rep["paths"] is None
    assert rep["branches"] == {}


def test_construct_star_refusal(tmp_path, capsys):
    prob = {
        "graph": {"kind": "star_of_vertex", "dim": 5},
        "pairs": [[0, 15], [7, 11], [13, 14]],
        "forbidden": [],
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 1
    assert rep["status"] == "refused"
    assert rep["refusal"]["facet"] == list(range(16))


def test_construct_star_keeps_caller_pair_order(tmp_path, capsys):
    # the centre 0 is in the second pair; the router takes it first
    f = tmp_path / "p.json"
    reports = []
    for pairs in ([[7, 26], [0, 17], [25, 13]],
                  [[17, 0], [13, 25], [26, 7]]):
        f.write_text(json.dumps({
            "graph": {"kind": "star_of_vertex", "dim": 5}, "pairs": pairs}))
        code, rep = run_json(capsys, "construct", "--instance", str(f))
        assert code == 0 and rep["status"] == "linked"
        assert [[p[0], p[-1]] for p in rep["paths"]] == pairs
        reports.append(rep)
    assert (sorted(map(sorted, reports[0]["paths"]))
            == sorted(map(sorted, reports[1]["paths"])))


def test_construct_forbidden_terminal_names_the_fields(tmp_path, capsys):
    # a forbidden vertex that is also a terminal fails before routing, in
    # the problem file's terms (strong_link_even would name its parameters)
    f = tmp_path / "p.json"
    for graph in ({"kind": "cube", "dim": 4}, [[1], [0, 2], [1]]):
        f.write_text(json.dumps({"graph": graph, "pairs": [[0, 1]],
                                 "forbidden": [1]}))
        code, out, err = run(capsys, "construct", "--instance", str(f))
        assert code == 2 and out == ""
        assert err == ('error: "forbidden" vertex 1 is also a terminal in '
                       '"pairs"\n')


def test_star_lemma_centre_outside_first_pair(capsys):
    # the centre 16 of the bicube_5 star sorts after other terminals, so
    # most sampled instances do not list its pair first
    code, rep = run_json(capsys, "verify", "--kind", "glued_chain",
                         "--dim", "5", "--chain-length", "2",
                         "--check", "star_lemma", "--mode", "sampled",
                         "--samples", "3000", "--seed", "5")
    assert code == 0
    verdict = rep["verdict"]
    assert verdict["status"] == "sampled_pass"
    assert verdict["checked"] == 3000
    assert verdict["detail"]["linked"] == 3000
    assert verdict["detail"]["refused"] == 0


def test_construct_polytope_spec(tmp_path, capsys):
    prob = {
        "graph": {"kind": "glued_chain", "dim": 5, "chain_length": 2},
        "pairs": [[0, 31], [14, 7], [11, 13]],
        "forbidden": [],
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 0
    assert rep["status"] == "linked"
    assert len(rep["paths"]) == 3
    assert rep["branches"]["polytope.blocked.swap"] == 1


def test_construct_even_avoiding(tmp_path, capsys):
    prob = {
        "graph": {"kind": "cube", "dim": 4},
        "pairs": [[3, 13], [9, 5]],
        "forbidden": [12],
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 0
    assert all(12 not in p for p in rep["paths"])


def test_inspect_reports_f_vector(capsys):
    code, rep = run_json(capsys, "inspect", "--kind", "glued_chain",
                         "--dim", "4", "--chain-length", "2")
    assert code == 0
    assert rep["f_vector"][0] == 24
    assert rep["euler_characteristic"] == 0
    assert rep["strongly_connected"] is True
    assert rep["graph_connectivity"] == 4


def test_inspect_star(capsys):
    # the star's own counts, not those of the Q_5 it lies in
    code, rep = run_json(capsys, "inspect", "--kind", "star_of_vertex",
                         "--dim", "5")
    assert code == 0
    assert rep["star_center"] == 0
    assert rep["f_vector"] == [31, 75, 70, 30, 5]
    assert rep["num_vertices"] == 31 and rep["euler_characteristic"] == 1


def test_star_spec_verifies_the_star(capsys):
    # Q_5 is 3-linked, but the 31-vertex star of its vertex 0 is not
    code, rep = run_json(capsys, "verify", "--kind", "star_of_vertex",
                         "--dim", "5", "--check", "k_linked", "--k", "3")
    v = rep["verdict"]
    assert code == 1 and v["status"] == "counterexample"
    assert v["checked"] == 1562488
    assert v["witness"]["pairs"] == [[0, 15], [7, 11], [13, 14]]
    # checks that walk a whole polytope refuse a star
    for check in ("link_construct", "technical_lemma"):
        code, out, err = run(capsys, "verify", "--kind", "star_of_vertex",
                             "--dim", "5", "--check", check)
        assert code == 2 and out == ""
        assert f"{check} needs a polytope" in err


def test_bench_runs(capsys):
    code, rep = run_json(capsys, "bench", "--kind", "cube", "--dim", "4",
                         "--samples", "40", "--seed", "2")
    assert code == 0
    marks = rep["benchmarks"]
    assert marks["solve_linkage"]["ops"] == 40
    assert marks["menger_paths"]["ops"] == 40
    assert marks["construct_linkage"]["ops"] == 40
    assert all(m["per_sec"] > 0 for m in marks.values())


def test_bench_samples_below_one_exit_two(capsys):
    # no op to time: refused like verify --samples 0, not timed as one op
    for samples in ("0", "-2"):
        code, out, err = run(capsys, "bench", "--kind", "cube", "--dim", "4",
                             "--samples", samples)
        assert code == 2 and out == ""
        assert f"--samples must be at least 1, got {samples}" in err


def test_linkedness_k_below_one_exit_two(capsys):
    # --k 0 used to verify one empty instance, --k -1 to fail in math.comb
    for check in ("k_linked", "strongly_linked"):
        for k in ("0", "-1"):
            code, out, err = run(capsys, "verify", "--kind", "cube", "--dim",
                                 "3", "--check", check, "--k", k)
            assert code == 2 and out == ""
            assert f"--k must be at least 1, got {k}" in err


def test_usage_errors_exit_two(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "--kind", "cube", "--dim", "3",
                       "--check", "k_linked")         # missing --k
    assert code == 2 and "error" in err

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
    for jobs in ("0", "-3"):
        code, _, err = run(capsys, "verify", "--kind", "cube", "--dim", "3",
                           "--check", "k_linked", "--k", "2", "--jobs", jobs)
        assert code == 2 and "--jobs" in err
    for jobs in ("x", "", "1.5"):
        monkeypatch.setenv("CUBELINK_JOBS", jobs)
        for argv in (("inspect", "--dim", "3"),
                     ("verify", "--kind", "cube", "--dim", "3", "--check",
                      "k_linked", "--k", "2")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "CUBELINK_JOBS" in err
    monkeypatch.delenv("CUBELINK_JOBS")
    # --symmetry sweeps orbits of exhaustive linkedness campaigns only, and
    # separators, k23 and technical_lemma have no sampled form; anywhere
    # else the flag would be ignored, so it is refused
    sampled = ("--mode", "sampled", "--samples", "50")
    for argv in (("--dim", "4", "--check", "k_linked", "--k", "2", *sampled,
                  "--symmetry"),
                 ("--dim", "4", "--check", "strongly_linked", "--k", "2",
                  *sampled, "--symmetry"),
                 ("--dim", "5", "--check", "star_lemma", *sampled,
                  "--symmetry"),
                 ("--dim", "5", "--check", "link_construct", *sampled,
                  "--symmetry"),
                 ("--dim", "3", "--check", "lemma6", "--symmetry"),
                 ("--dim", "3", "--check", "separators", *sampled),
                 ("--dim", "3", "--check", "k23", *sampled),
                 ("--dim", "4", "--check", "technical_lemma", *sampled)):
        code, out, err = run(capsys, "verify", "--kind", "cube", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert ("--symmetry" if "--symmetry" in argv
                else "--mode sampled") in err
    for check in (("k_linked", "--k", "2"), ("star_lemma",)):
        for samples in ("0", "-5"):
            code, out, err = run(capsys, "verify", "--kind", "cube", "--dim",
                                 "5", "--check", *check, "--mode", "sampled",
                                 "--samples", samples)
            assert code == 2 and out == "" and "--samples" in err
    for graph in ([[1, 9], [0]], [[1, -1], [0]], [5, [0]], [[1], [2], []],
                  [[1.5], [0]], [[True], [0]], [[[1]], [0]]):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"graph": graph, "pairs": [[0, 1]]}))
        code, _, err = run(capsys, "construct", "--instance", str(f))
        assert code == 2 and "vertex" in err
    cube5 = {"kind": "cube", "dim": 5}
    trio = [[0, 31], [14, 7], [11, 13]]
    for prob in ({"graph": cube5, "pairs": trio, "forbidden": 5},
                 {"graph": cube5, "pairs": trio, "forbidden": [[1]]},
                 {"graph": cube5, "pairs": trio, "forbidden": [2.0]},
                 {"graph": {"kind": "cube", "dim": "x"}, "pairs": trio},
                 {"graph": {"kind": "cube", "dim": 5.0}, "pairs": trio},
                 {"graph": {"kind": "cube", "dim": True}, "pairs": trio},
                 {"graph": {"kind": 5, "dim": 5}, "pairs": trio},
                 {"graph": {"kind": "glued_chain", "dim": 5,
                            "chain_length": [2]}, "pairs": trio},
                 {"graph": {"kind": "star_of_vertex", "dim": 5},
                  "pairs": [[7, 26], [0, 17], [25, 13]], "forbidden": [1]},
                 {"graph": [[1], [0]], "pairs": [[0.7, 1]]},
                 {"graph": [[1], [0]], "pairs": [[False, 1]]},
                 {"graph": [[1], [0]], "pairs": [[[0], 1]]},
                 {"graph": [[1], [0]], "pairs": [[0, 1, 1]]},
                 {"graph": [[1], [0]], "pairs": {"0": 1}},
                 {"graph": {"kind": "from_file", "path": "/nonexistent"},
                  "pairs": [[0, 1]]},
                 [[0, 1]]):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(prob))
        code, out, err = run(capsys, "construct", "--instance", str(f))
        assert code == 2 and out == "" and err.startswith("error: ")
    edge = [[[0], [1]], [[0, 1]]]
    for bad in ({"d": 1, "vertices": [0, 1], "faces": [[["a"], [1]], [[0, 1]]]},
                {"d": 1, "vertices": [0, 1], "faces": [[0, 1], [[0, 1]]]},
                {"d": "1", "vertices": [0, 1], "faces": edge},
                {"d": True, "vertices": [0, 1], "faces": edge},
                {"d": 1, "vertices": [0, 1], "faces": [[[0.0], [1]], [[0, 1]]]},
                {"d": 1, "vertices": [0, 1], "faces": [[[True], [1]], [[0, 1]]]},
                {"d": 1, "vertices": [{"a": 1}, 1], "faces": edge},
                {"d": -1, "vertices": [], "faces": []}):
        f = tmp_path / "bad_complex.json"
        f.write_text(json.dumps(bad))
        code, _, err = run(capsys, "verify", "--kind", "from_file",
                           "--instance", str(f), "--check", "k23")
        assert code == 2 and err.startswith("error: ")
    code, _, err = run(capsys, "verify", "--kind", "cube", "--dim", "6",
                       "--check", "star_lemma")       # even-d star
    assert code == 2
    code, _, err = run(capsys, "verify", "--kind", "glued_chain", "--dim",
                       "4", "--chain-length", "2", "--check", "lemma6")
    assert code == 2
    code, _, err = run(capsys, "construct", "--instance", "/nonexistent.json")
    assert code == 2


def test_internal_proof_step_failure_exits_three(tmp_path, capsys,
                                                  monkeypatch):
    def broken(*args):
        raise ProofStepError("polytope.case", "injected failure")

    monkeypatch.setattr(cubelink.cli, "link_in_polytope", broken)
    prob = {"graph": {"kind": "glued_chain", "dim": 5, "chain_length": 2},
            "pairs": [[0, 31], [14, 7], [11, 13]], "forbidden": []}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, out, err = run(capsys, "construct", "--instance", str(f))
    assert code == 3 and out == ""
    assert ("error: internal proof step polytope.case failed: "
            "injected failure") in err


class _FailingConstruct(cubelink.cli._ConstructCheck):
    """A link_construct check whose router step always fails; defined at
    module level so that spawned campaign workers can unpickle it."""

    def __call__(self, inst, tally):
        raise ProofStepError("polytope.case", "injected failure")


def test_proof_step_failure_in_link_construct_exits_three(capsys,
                                                          monkeypatch):
    argv = ("verify", "--kind", "glued_chain", "--dim", "5",
            "--chain-length", "2", "--check", "link_construct",
            "--mode", "sampled", "--samples", "20", "--seed", "1")
    want = "error: internal proof step polytope.case failed: injected failure"

    def broken(*args):
        raise ProofStepError("polytope.case", "injected failure")

    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "link_in_polytope", broken)
        code, out, err = run(capsys, *argv, "--jobs", "1")
    assert code == 3 and out == "" and want in err
    # worker processes import cli afresh, so at --jobs 2 the failing
    # router comes in with the check object instead
    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "_ConstructCheck", _FailingConstruct)
        code, out, err = run(capsys, *argv, "--jobs", "2")
    assert code == 3 and out == "" and want in err

    def invalid(*args):
        raise InvalidLinkage("paths share a vertex")

    # a validation error stays a counterexample witness
    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "link_in_polytope", invalid)
        code, rep = run_json(capsys, *argv, "--jobs", "1")
    assert code == 1
    assert rep["verdict"]["witness"]["error"] == "paths share a vertex"

    def misrouted(*args):
        raise ValueError("terminal 5 outside the star")

    # any other ValueError is a router fault, not a counterexample
    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "link_in_polytope", misrouted)
        code, out, err = run(capsys, *argv, "--jobs", "1")
    assert code == 3 and out == ""
    assert ("error: internal proof step construct failed: terminal 5 "
            "outside the star") in err


def test_construct_router_fault_exit_codes(tmp_path, capsys, monkeypatch):
    # a router fault is not bad input: an invalid linkage out of the final
    # check exits 1 with the error in the report, any other ValueError out
    # of the routing call is proof step "construct" (exit 3)
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "graph": {"kind": "glued_chain", "dim": 5, "chain_length": 2},
        "pairs": [[0, 31], [14, 7], [11, 13]]}))

    def invalid(*args):
        raise InvalidLinkage("paths share a vertex")

    def broken(*args):
        raise ValueError("injected fault")

    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "link_in_polytope", invalid)
        code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 1
    assert (rep["status"], rep["paths"], rep["error"]) == (
        "invalid", None, "paths share a vertex")
    with monkeypatch.context() as m:
        m.setattr(cubelink.cli, "link_in_polytope", broken)
        code, out, err = run(capsys, "construct", "--instance", str(f))
    assert code == 3 and out == ""
    assert "error: internal proof step construct failed: injected fault" \
        in err
    # input errors stay exit 2: they are refused before any router runs
    cube5, star5 = {"kind": "cube", "dim": 5}, {"kind": "star_of_vertex",
                                                "dim": 5}
    for graph, pairs, forbidden in (
            (cube5, [[0, 31], [14, 7]], []),             # too few pairs
            (cube5, [[0, 31], [14, 7], [11, 99]], []),   # not a vertex
            (cube5, [[0, 31], [14, 7], [11, -1]], []),
            ({"kind": "cube", "dim": 3}, [[0, 7], [1, 6]], []),
            ({"kind": "cube", "dim": 4}, [[3, 13], [9, 5]], [99]),
            (star5, [[1, 31], [14, 7], [11, 13]], []),   # centre unpaired
            (star5, [[0, 31], [14, 7], [11, 11]], [])):
        f.write_text(json.dumps({"graph": graph, "pairs": pairs,
                                 "forbidden": forbidden}))
        with monkeypatch.context() as m:
            for router in ("link_in_polytope", "strong_link_even",
                           "link_in_star"):
                m.setattr(cubelink.cli, router, broken)
            code, out, err = run(capsys, "construct", "--instance", str(f))
        assert code == 2 and out == "" and err.startswith("error: "), pairs


def test_benchmark_verify_calls_reach_the_traced_oracle(capsys,
                                                      monkeypatch):
    # perfbench's oracle.verify layer is the time spent in these two cli
    # globals, wrapped by name (worker.py REBINDS): a verify that reached
    # the oracle some other way would read 0 there.  The command lines are
    # its orbit_sweep and sampled_campaign calls at smoke size.
    calls = []

    def counted(name):
        fn = getattr(cubelink.cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("verify_k_linked", "verify_strongly_linked"):
        monkeypatch.setattr(cubelink.cli, name, counted(name))
    code, _ = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                       "--check", "strongly_linked", "--k", "2",
                       "--symmetry", "--jobs", "1")
    assert code == 0 and calls == ["verify_strongly_linked"]
    code, _ = run_json(capsys, "verify", "--kind", "glued_chain", "--dim",
                       "5", "--chain-length", "2", "--check", "k_linked",
                       "--k", "3", "--mode", "sampled", "--samples", "100",
                       "--seed", "1", "--jobs", "1")
    assert code == 0
    assert calls == ["verify_strongly_linked", "verify_k_linked"]


def test_budget_cap_exits_two(tmp_path, capsys):
    # refuting the crossed pairs on a 2-face of Q_3 needs search nodes
    adj = [[v ^ 1, v ^ 2, v ^ 4] for v in range(8)]
    prob = {"graph": adj, "pairs": [[0, 3], [1, 2]], "forbidden": []}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, rep = run_json(capsys, "construct", "--instance", str(f))
    assert code == 1 and rep["status"] == "unlinked"
    code, _, err = run(capsys, "construct", "--instance", str(f),
                       "--budget", "1")
    assert code == 2 and "budget" in err


def test_from_file_instance_kind(tmp_path, capsys):
    c = glued_cubes(3, 2)
    f = tmp_path / "bi.json"
    f.write_text(json.dumps(c.to_json_dict()))
    code, rep = run_json(capsys, "inspect", "--kind", "from_file",
                         "--instance", str(f))
    assert code == 0
    assert rep["f_vector"] == [12, 20, 10]
    code, rep = run_json(capsys, "verify", "--kind", "from_file",
                         "--instance", str(f), "--check", "k23")
    assert code == 0


def test_jobs_flag_parallel_verify(capsys):
    code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim", "4",
                         "--check", "k_linked", "--k", "2", "--jobs", "2")
    assert code == 0
    assert rep["verdict"]["status"] == "verified"
    assert rep["verdict"]["checked"] == 5460
    campaigns = [
        ("--kind", "glued_chain", "--dim", "4", "--chain-length", "2",
         "--check", "k_linked", "--k", "2", "--mode", "sampled",
         "--samples", "700", "--seed", "3"),
        ("--kind", "cube", "--dim", "5", "--check", "star_lemma",
         "--mode", "sampled", "--samples", "300", "--seed", "4"),
        ("--kind", "glued_chain", "--dim", "4", "--chain-length", "2",
         "--check", "link_construct", "--mode", "sampled",
         "--samples", "250", "--seed", "6"),
    ]
    for argv in campaigns:
        reports = []
        for jobs in ("1", "2"):
            code, rep = run_json(capsys, "verify", *argv, "--jobs", jobs)
            assert code == 0
            rep["verdict"].pop("elapsed_ms")
            reports.append(rep)
        assert reports[0] == reports[1]
        if "k_linked" not in argv:
            assert reports[0]["verdict"]["detail"]["branches"]


def test_symmetry_reports_same_at_every_job_count(capsys):
    # the orbit stream goes to the pool as array batches; reports match
    # byte for byte apart from elapsed_ms, the counterexample's orbit
    # counts included
    cases = ((("--check", "strongly_linked", "--k", "2"), 0, 231, 231, 65520),
             (("--check", "k_linked", "--k", "3"), 1, 15, 437, 120120))
    for argv, want_code, checked, orbits, labelled in cases:
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "verify", "--kind", "cube", "--dim",
                               "4", *argv, "--symmetry", "--jobs", jobs)
            assert code == want_code
            v = json.loads(out)["verdict"]
            assert (v["checked"], v["detail"]["orbits"],
                    v["detail"]["labelled_total"]) \
                == (checked, orbits, labelled)
            outs.append(re.sub(r"(elapsed_ms\W+)\d+", r"\1", out))
        assert outs[0] == outs[1]


def test_sampled_witness_same_at_every_job_count(capsys):
    # checked and witness as the one-sample-per-call generator gave them
    for seed, checked, pairs in (("0", 6, [[4, 7], [5, 6]]),
                                 ("1", 60, [[0, 3], [1, 2]])):
        for jobs in ("1", "2"):
            code, rep = run_json(capsys, "verify", "--kind", "cube", "--dim",
                                 "3", "--check", "k_linked", "--k", "2",
                                 "--mode", "sampled", "--samples", "5000",
                                 "--seed", seed, "--jobs", jobs)
            v = rep["verdict"]
            assert code == 1 and v["status"] == "counterexample"
            assert (v["checked"], v["witness"]["pairs"]) == (checked, pairs)


def test_cli_import_leaves_numpy_out():
    # numpy is imported on first use, so that a command that needs none
    # (and every process's start-up) does not pay for it
    code = ("import sys, cubelink.cli, cubelink.oracle; "
            "sys.exit('numpy' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_JUNK = (hst.none() | hst.booleans() | hst.floats(allow_nan=False)
         | hst.text(max_size=3) | hst.integers(-2, 70)
         | hst.lists(hst.integers(0, 3), max_size=2))


def _nodes(x, out):
    # every (container, key) slot of a json value, depth first
    items = x.items() if isinstance(x, dict) else (
        enumerate(x) if isinstance(x, list) else ())
    for key, value in items:
        out.append((x, key))
        _nodes(value, out)
    return out


@hst.composite
def _problem_file(draw):
    """A well-formed construct problem (adjacency list or instance spec,
    pairs, forbidden vertices), then up to two slots replaced by junk or
    dropped."""
    kind = draw(hst.sampled_from(["adjacency", "cube", "glued_chain",
                                  "star_of_vertex"]))
    if kind == "adjacency":
        n = draw(hst.integers(1, 9))
        edges = draw(hst.sets(hst.tuples(hst.integers(0, n - 1),
                                         hst.integers(0, n - 1))))
        nbrs = [set() for _ in range(n)]
        for a, b in edges:
            if a != b:
                nbrs[a].add(b)
                nbrs[b].add(a)
        graph = [sorted(s) for s in nbrs]
        k = draw(hst.integers(0, 4))
        skip = draw(hst.integers(0, 2))
    else:
        d = draw(hst.integers(2, 6))
        graph = {"kind": kind, "dim": d}
        length = draw(hst.sampled_from([0, 2, 3] if kind != "cube" else [0]))
        if length:
            graph["chain_length"] = length
        n = (length + 1) << (d - 1) if length else 1 << d
        # mostly the shape the router takes: the paper's k, one avoided
        # vertex in even dimension, the star's centre among the terminals
        k = draw(hst.sampled_from([(d + 1) // 2] * 3 + [1, 4]))
        skip = draw(hst.sampled_from([1 - d % 2] * 3 + [0, 1, 2]))
    ids = draw(hst.lists(hst.integers(0, n - 1), unique=True,
                         min_size=min(n, 2), max_size=min(n, 10)))
    if kind == "star_of_vertex":
        centre = 1 << (d - 1) if length else 0
        ids = [centre] + [v for v in ids if v != centre]
        ids.insert(draw(hst.integers(0, len(ids) - 1)), ids.pop(0))
    k = min(k, len(ids) // 2)
    prob = {"graph": graph,
            "pairs": [ids[2 * i:2 * i + 2] for i in range(k)],
            "forbidden": ids[2 * k:2 * k + skip]}
    for _ in range(draw(hst.integers(0, 2))):
        slots = _nodes(prob, [])
        box, key = slots[draw(hst.integers(0, len(slots) - 1))]
        if isinstance(box, dict) and draw(hst.booleans()):
            del box[key]
        else:
            box[key] = draw(_JUNK)
    return prob


@settings(max_examples=500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_problem_file() | _JUNK)
def test_construct_problem_file_fuzz(tmp_path, capsys, prob):
    # any exception escaping main would be a traceback on the command line
    f = tmp_path / "p.json"
    f.write_text(json.dumps(prob))
    code, out, err = run(capsys, "construct", "--instance", str(f))
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        want = ("linked",) if code == 0 else ("unlinked", "refused")
        assert json.loads(out)["status"] in want


def _flag(name, good, junk=()):
    # the flag with one of its values; None leaves the flag out
    return hst.sampled_from(list(good) + list(junk)).map(
        lambda v: [] if v is None else [name] if v is True else [name, str(v)])


@hst.composite
def _argv(draw):
    """A command line from the real flag vocabulary, bounded so that every
    run is small: exhaustive sweeps on d <= 3 with k <= 2, at most 50
    samples, and --jobs in {1, 0, -1} so that no process pool starts.
    Half the lines draw only good values: each one a value its flag
    accepts.  Most clean verify lines still combine them into a run that
    verify refuses with exit 2, so they test only that refusal:
    --symmetry (drawn half the time) on anything but an exhaustive
    k_linked or strongly_linked check on --kind cube; --mode sampled with
    separators, k23 or technical_lemma; lemma6 off --kind cube;
    --kind glued_chain at --dim 2; link_construct, star_lemma and
    technical_lemma below the dimension each takes; and --k too large for
    the graph (in a 2,000-line draw, 597 of 774 clean verify lines exited
    2).  The other half may leave flags out, give bad values or carry a
    junk token."""
    clean = draw(hst.booleans())
    # the bad values a line may draw: none on a clean line
    junk = (lambda *v: ()) if clean else (lambda *v: v)
    command = draw(hst.sampled_from(["verify"] * 6 + ["inspect", "bench"]
                                    + list(junk("construct"))))
    mode = draw(hst.sampled_from(["exhaustive", "sampled", *junk(None)]))
    small = command == "verify" and mode != "sampled"
    kind = draw(hst.sampled_from(["cube", "glued_chain", "star_of_vertex",
                                  *junk("from_file", None)]))
    flags = [
        hst.just([] if kind is None else ["--kind", kind]),
        _flag("--dim", [2, 3] if small else [2, 3, 4], junk(None)),
        _flag("--chain-length", [2, 3] if kind == "glued_chain" else [None],
              junk(0, -1)),
        _flag("--instance", [None], junk("/nonexistent.json")),
        _flag("--format", ["json", "csv", "text"], junk(None)),
        _flag("--seed", [None, 0, 7]),
        _flag("--budget", [None, 1, 50, 2000]),
    ]
    if command == "verify":
        flags += [
            _flag("--check", cubelink.cli.CHECKS, junk(None)),
            _flag("--k", [1, 2] + ([] if small else [3, 4]),
                  junk(None, 0, -1)),
            hst.just([] if mode is None else ["--mode", mode]),
            _flag("--samples", [1, 17, 50], junk(None, 0, -1)),
            _flag("--jobs", [1], junk(None, 0, -1)),
            _flag("--symmetry", [None, True]),
        ]
    elif command == "bench":
        flags.append(_flag("--samples", [None, 1, 50], junk(-1)))
    argv = [command]
    for got in draw(hst.permutations(flags)):
        argv += draw(got)
    if not clean and draw(hst.booleans()):
        argv.insert(draw(hst.integers(0, len(argv))),
                    draw(hst.sampled_from(["x", "--dim", "--bogus", "-1"])))
    return argv


def _report_status(out, fmt):
    if fmt == "json":
        rep = json.loads(out)
        return rep["verdict"]["status"] if "verdict" in rep else rep["status"]
    sep = "," if fmt == "csv" else ": "
    rows = out.splitlines()[1:] if fmt == "csv" else out.splitlines()
    lines = dict(row.split(sep, 1) for row in rows)
    return lines.get("verdict.status", lines.get("status"))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv(), hst.sampled_from([None, None, "1", "x", "", "1.5", "0"]))
def test_argv_fuzz_exit_contract(capsys, monkeypatch, argv, env_jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
    if env_jobs is None:
        monkeypatch.delenv("CUBELINK_JOBS", raising=False)
    else:
        monkeypatch.setenv("CUBELINK_JOBS", env_jobs)
    try:
        code = main(argv)
    except SystemExit as e:             # argparse rejects the command line
        code = e.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, err)
    if code == 2:
        assert out == "" and "error" in err, argv
    elif code == 1:
        fmt = (argv[argv.index("--format") + 1] if "--format" in argv
               else "json")
        assert _report_status(out, fmt) in ("counterexample", "refused",
                                             "unlinked"), argv
