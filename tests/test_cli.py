"""Command line behavior: schemas, exit codes, determinism, report integrity."""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import pickle
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from ditlab import classical, cli, density, logic, quantum
from ditlab.classical import JointDist, ProbDist
from ditlab.errors import DitlabError
from ditlab.partitions import make_partition, top

F = Fraction


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def parity_file(tmp_path):
    return write_doc(tmp_path, "parity.json", {
        "kind": "partition", "n": 6, "blocks": [[0, 2, 4], [1, 3, 5]],
    })


@pytest.fixture
def uniform6_file(tmp_path):
    return write_doc(tmp_path, "u6.json", {"kind": "dist", "weights": ["1/6"] * 6})


# ------------------------------------------------------------ entropy command

def test_entropy_single_exact_output(parity_file, uniform6_file):
    code, out, err = run(["entropy", "--pi", parity_file, "--p", uniform6_file])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "entropy"
    assert report["quantities"]["h_pi"] == "1/2"
    assert report["identities_checked"]["unit_interval"]["pass"] is True
    assert len(report["inputs"]["pi"]["sha256"]) == 64


def test_entropy_pair_report_reverifies(tmp_path):
    pi_f = write_doc(tmp_path, "pi.json", {
        "kind": "partition", "n": 4, "blocks": [[0, 1], [2, 3]],
    })
    sg_f = write_doc(tmp_path, "sg.json", {
        "kind": "partition", "n": 4, "blocks": [[0, 2], [1, 3]],
    })
    p_f = write_doc(tmp_path, "p.json", {"kind": "dist", "weights": ["1/4"] * 4})
    code, out, _ = run(["entropy", "--pi", pi_f, "--sigma", sg_f, "--p", p_f])
    assert code == 0
    q = json.loads(out)["quantities"]

    pi = make_partition(4, [[0, 1], [2, 3]])
    sg = make_partition(4, [[0, 2], [1, 3]])
    p = ProbDist.uniform(4)
    prof = classical.entropy_profile(pi, sg, p)
    expect = {
        "h_pi": prof.h_pi,
        "h_sigma": prof.h_sigma,
        "h_joint": prof.h_joint,
        "h_pi_given_sigma": prof.h_pi_given_sigma,
        "h_sigma_given_pi": prof.h_sigma_given_pi,
        "mutual": prof.mutual,
        "hamming_distance": classical.hamming_distance(pi, sg, p),
        "cross_entropy": classical.cross_entropy_partitions(pi, sg, p),
    }
    for name, value in expect.items():
        assert q[name] == json.loads(cli._dumps(value)), name
    assert q["h_joint"] == "3/4" and q["mutual"] == "1/4"


def test_entropy_shannon_quantities(tmp_path):
    pi_f = write_doc(tmp_path, "pi.json", {
        "kind": "partition", "n": 8, "blocks": [[i] for i in range(8)],
    })
    sg_f = write_doc(tmp_path, "sg.json", {
        "kind": "partition", "n": 8, "blocks": [[0, 1, 2, 3], [4, 5, 6, 7]],
    })
    p_f = write_doc(tmp_path, "p.json", {"kind": "dist", "weights": ["1/8"] * 8})
    code, out, _ = run(["entropy", "--pi", pi_f, "--sigma", sg_f, "--p", p_f, "--shannon"])
    assert code == 0
    rep = json.loads(out)
    assert float(rep["quantities"]["H_pi"]) == pytest.approx(3.0)
    assert float(rep["quantities"]["H_sigma"]) == pytest.approx(1.0)
    assert rep["identities_checked"]["shannon_transform"]["pass"] is True


def test_entropy_twoset_mode(tmp_path):
    pi_f = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    sg_f = write_doc(tmp_path, "sg.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    j_f = write_doc(tmp_path, "j.json", {
        "kind": "joint", "x": 2, "y": 2,
        "matrix": [["1/2", "0"], ["0", "1/2"]],
    })
    code, out, _ = run(["entropy", "--pi", pi_f, "--sigma", sg_f, "--joint", j_f])
    assert code == 0
    q = json.loads(out)["quantities"]
    assert q["h_pi"] == "1/2" and q["h_sigma"] == "1/2"
    assert q["h_joint"] == "1/2" and q["mutual"] == "1/2"
    assert q["h_pi_given_sigma"] == "0" or q["h_pi_given_sigma"] == 0


@pytest.mark.parametrize("field, value", [
    ("x", True), ("x", 2.0), ("y", 2.0), ("y", False), ("x", "2"), ("y", None),
])
def test_joint_sizes_must_be_integers(tmp_path, field, value):
    """A bool or a float that equals the row count is no size, as a partition's ``n`` is not."""
    pi_f = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    doc = {"kind": "joint", "x": 2, "y": 2, "matrix": [["1/2", "0"], ["0", "1/2"]], field: value}
    j_f = write_doc(tmp_path, "j.json", doc)
    code, out, err = run(["entropy", "--pi", pi_f, "--sigma", pi_f, "--joint", j_f])
    assert (code, out) == (2, "") and f"field {field!r} must be an integer" in err


def test_entropy_argument_conflicts(tmp_path, parity_file, uniform6_file):
    j_f = write_doc(tmp_path, "j.json", {
        "kind": "joint", "x": 1, "y": 1, "matrix": [["1"]],
    })
    code, _, err = run(["entropy", "--pi", parity_file])
    assert code == 2 and "input error" in err
    code, _, err = run([
        "entropy", "--pi", parity_file, "--p", uniform6_file, "--joint", j_f,
    ])
    assert code == 2
    code, _, err = run(["entropy", "--pi", parity_file, "--joint", j_f])
    assert code == 2 and "--sigma" in err


def test_bad_command_line_is_reported_by_main():
    code, out, err = run(["entropy"])
    assert (code, out) == (2, "") and err.startswith("ditlab: input error:")


def test_entropy_usage_shows_one_required_distribution(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(["entropy", "--help"])
    assert stop.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert "(--p P | --joint JOINT)" in usage


def test_entropy_rejects_bad_distribution(tmp_path, parity_file):
    bad = write_doc(tmp_path, "bad.json", {
        "kind": "dist", "weights": ["1/2", "1/3", "0", "0", "0", "0"],
    })
    code, out, err = run(["entropy", "--pi", parity_file, "--p", bad])
    assert code == 3 and out == ""
    assert "invariant violation" in err


def test_a_nan_range_residual_fails_its_check(tmp_path, parity_file, monkeypatch):
    """A NaN weight still passes ``ProbDist``; its NaN entropy fails ``unit_interval``, and a NaN
    distance fails ``nonnegative``, so neither report exits 0."""
    nan = tmp_path / "nan.json"
    nan.write_text('{"kind": "dist", "weights": [NaN, 0.5, 0.5, 0, 0, 0]}')
    code, out, err = run(["entropy", "--pi", parity_file, "--p", str(nan)])
    assert code == 3 and "identity check failed: unit_interval" in err
    assert out.endswith('"identities_checked":{"unit_interval":{"pass":false,"residual":nan}}}\n')

    rho = write_doc(tmp_path, "rho.json", _density_doc(np.eye(2) / 2))
    monkeypatch.setattr(quantum, "quantum_hamming", lambda rho, tau: float("nan"))
    code, out, _ = run(["distance", "--rho", rho, "--tau", rho])
    assert code == 3 and '"nonnegative":{"pass":false,"residual":nan}' in out


def test_schema_errors_exit_two(tmp_path, parity_file):
    wrong_kind = write_doc(tmp_path, "w.json", {"kind": "dist", "weights": [1]})
    code, _, err = run(["entropy", "--pi", wrong_kind, "--p", wrong_kind])
    assert code == 2 and "expected kind 'partition'" in err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    code, _, err = run(["entropy", "--pi", str(not_json), "--p", str(not_json)])
    assert code == 2 and "not valid JSON" in err

    code, _, err = run(["entropy", "--pi", str(tmp_path / "absent.json"), "--p", wrong_kind])
    assert code == 2 and "cannot read" in err


# ---------------------------------------------------------- tautology command

def test_tautology_modus_ponens():
    code, out, err = run(["tautology", "--expr", "(s & (s -> p)) -> p"])
    assert code == 0 and err == ""
    q = json.loads(out)["quantities"]
    assert q["status"] == "tautology_up_to_bound"
    assert q["bound"] == 4
    assert q["witness"] is None
    assert q["planned_evaluations"] == sum(b ** 2 for b in (2, 5, 15))


def test_tautology_counterexample_report():
    code, out, err = run(["tautology", "--expr", "p | q"])
    assert code == 0
    rep = json.loads(out)
    q = rep["quantities"]
    assert q["status"] == "counterexample"
    assert q["witness"]["n"] == 2
    assert q["witness"]["assignment"] == {"p": [[0, 1]], "q": [[0, 1]]}
    assert q["witness_value"] == [[0, 1]]
    assert rep["identities_checked"]["witness_reevaluates_nontop"]["pass"] is True


def test_tautology_formula_file(tmp_path):
    f = write_doc(tmp_path, "f.json", {"kind": "formula", "text": "p -> (q -> p)"})
    code, out, _ = run(["tautology", "--formula", f, "--max-n", "3"])
    assert code == 0
    q = json.loads(out)["quantities"]
    assert q["status"] == "tautology_up_to_bound" and q["bound"] == 3


def test_tautology_syntax_error_position():
    code, out, err = run(["tautology", "--expr", "p & (q"])
    assert code == 2 and out == ""
    assert "position" in err


def test_tautology_deep_formula_exits_two(tmp_path):
    f = write_doc(tmp_path, "f.json", {"kind": "formula", "text": "(" * 300 + "p" + ")" * 300})
    code, out, err = run(["tautology", "--formula", f])
    assert (code, out) == (2, "") and "nests deeper than" in err


def test_tautology_work_limit_exit(monkeypatch):
    monkeypatch.setenv(cli.WORK_LIMIT_ENV, "10")
    code, out, err = run(["tautology", "--expr", "(p & q) -> p"])
    assert code == 4 and out == ""
    assert "work limit" in err


def test_tautology_without_variables_is_bounded_by_work_only():
    code, out, err = run(["tautology", "--expr", "1", "--max-n", "10"])
    assert (code, err) == (0, "")
    q = json.loads(out)["quantities"]
    assert q["status"] == "tautology_up_to_bound" and q["planned_evaluations"] == 1


@pytest.mark.parametrize("max_n", ["1", "0", "-5"])
def test_tautology_max_n_below_two_is_malformed_input(max_n):
    code, out, err = run(["tautology", "--expr", "p", "--max-n", max_n])
    assert (code, out) == (2, "") and "input error" in err and "--max-n" in err


def test_tautology_refusal_of_a_huge_max_n_is_quick():
    start = time.perf_counter()
    code, out, err = run(["tautology", "--expr", "p", "--max-n", "800"])
    assert (code, out) == (4, "") and "work limit" in err
    assert time.perf_counter() - start < 0.5


def test_tautology_work_limit_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(cli.WORK_LIMIT_ENV, "lots")
    code, _, err = run(["tautology", "--expr", "p -> p"])
    assert code == 2 and "not an integer" in err


def test_tautology_recheck_that_disagrees_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(logic, "evaluate", lambda f, env, universe: top(universe))
    code, out, err = run(["tautology", "--expr", "p | q"])
    assert (code, out) == (3, "")
    assert err.startswith("ditlab: invariant violation: counterexample at n=2 and its re-evaluation")


# ------------------------------------------------------------ measure command

def test_measure_demo_values_and_determinism():
    code, out1, err = run(["measure", "--demo", "die-parity"])
    assert code == 0 and err == ""
    rep = json.loads(out1)
    q = rep["quantities"]
    assert float(q["h_F_psi"]) == pytest.approx(0.5, abs=1e-12)
    assert float(q["entropy_increase"]) == pytest.approx(0.5, abs=1e-12)
    assert float(q["decohered_sumsq"]) == pytest.approx(0.5, abs=1e-12)
    for name in ("route_partition_agrees", "route_measurement_agrees", "fundamental_theorem"):
        assert rep["identities_checked"][name]["pass"] is True
    _, out2, _ = run(["measure", "--demo", "die-parity"])
    assert out1 == out2


def test_measure_emit_density():
    code, out, _ = run(["measure", "--demo", "die-parity", "--emit-density"])
    assert code == 0
    m = json.loads(out)["matrices"]["rho_prime"]
    assert len(m) == 6 and all(len(row) == 6 for row in m)
    assert m[0][2][0] == pytest.approx(1 / 6, abs=1e-12)  # same parity: sqrt(pp')
    assert m[0][1][0] == pytest.approx(0.0, abs=1e-12)    # opposite parity decohered
    assert all(abs(e[1]) < 1e-12 for row in m for e in row)


def test_measure_file_inputs(tmp_path):
    amp = 0.5
    s_f = write_doc(tmp_path, "s.json", {
        "kind": "state", "amplitudes": [[amp, 0.0]] * 4,
    })
    o_f = write_doc(tmp_path, "o.json", {
        "kind": "observable", "eigenvalues": [1, 0, 1, 0],
    })
    code, out, _ = run(["measure", "--state", s_f, "--observable", o_f])
    assert code == 0
    q = json.loads(out)["quantities"]
    assert float(q["h_F_psi"]) == pytest.approx(0.5, abs=1e-12)


def test_measure_argument_errors(tmp_path):
    code, _, err = run(["measure", "--demo", "coin-flip"])
    assert code == 2 and "unknown demo" in err
    code, _, err = run(["measure"])
    assert code == 2
    s_f = write_doc(tmp_path, "s.json", {"kind": "state", "amplitudes": [[1.0, 0.0]]})
    code, _, err = run(["measure", "--state", s_f])
    assert code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_measure_rejects_non_finite_documents(tmp_path, bad):
    good_s = {"kind": "state", "amplitudes": [[0.6, 0.0], [0.8, 0.0]]}
    good_o = {"kind": "observable", "eigenvalues": [1, 0]}
    bad_docs = [
        ({"kind": "state", "amplitudes": [[bad, 0.0], [0.8, 0.0]]}, good_o),
        ({"kind": "state", "amplitudes": [[0.6, 0.0], [0.8, bad]]}, good_o),
        (good_s, {"kind": "observable", "eigenvalues": [bad, 0]}),
        (good_s, {"kind": "observable", "eigenvalues": [1, 0],
                  "eigenbasis": [[[1, 0], [0, 0]], [[0, 0], [bad, 0]]]}),
    ]
    for state, obs in bad_docs:
        s_f = write_doc(tmp_path, "s.json", state)
        o_f = write_doc(tmp_path, "o.json", obs)
        code, out, err = run(["measure", "--state", s_f, "--observable", o_f])
        assert (code, out) == (3, "") and "invariant violation" in err


# ----------------------------------------------------------- distance command

def _density_doc(mat):
    return {
        "kind": "density",
        "matrix": [[[float(np.real(e)), float(np.imag(e))] for e in row] for row in mat],
    }


def test_distance_report(tmp_path):
    rho = np.diag([0.5, 0.5, 0.0])
    tau = np.diag([0.25, 0.25, 0.5])
    r_f = write_doc(tmp_path, "r.json", _density_doc(rho))
    t_f = write_doc(tmp_path, "t.json", _density_doc(tau))
    code, out, err = run(["distance", "--rho", r_f, "--tau", t_f])
    assert code == 0 and err == ""
    rep = json.loads(out)
    q = rep["quantities"]
    assert float(q["h_rho"]) == pytest.approx(0.5, abs=1e-12)
    assert float(q["h_tau"]) == pytest.approx(0.625, abs=1e-12)
    assert float(q["cross_entropy"]) == pytest.approx(
        quantum.quantum_cross_entropy(rho, tau), abs=1e-15
    )
    assert float(q["hamming_distance"]) == pytest.approx(float(q["hilbert_schmidt"]), abs=1e-12)
    assert all(v["pass"] for v in rep["identities_checked"].values())


def test_distance_rejects_non_density(tmp_path):
    r_f = write_doc(tmp_path, "r.json", _density_doc(np.eye(2)))  # trace 2
    t_f = write_doc(tmp_path, "t.json", _density_doc(np.eye(2) / 2))
    code, out, err = run(["distance", "--rho", r_f, "--tau", t_f])
    assert code == 3 and "invariant violation" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_distance_rejects_non_finite_entries(tmp_path, bad):
    rho = np.eye(2) / 2
    r_f = write_doc(tmp_path, "r.json", _density_doc(rho))
    doc = _density_doc(rho)
    doc["matrix"][0][1] = doc["matrix"][1][0] = [bad, 0.0]
    t_f = write_doc(tmp_path, "t.json", doc)
    for argv in (["--rho", r_f, "--tau", t_f], ["--rho", t_f, "--tau", r_f]):
        code, out, err = run(["distance", *argv])
        assert (code, out) == (3, "") and "invariant violation" in err


def _count_builds(monkeypatch, module, name):
    """Count the calls of ``module.name`` that build a carrier, not pass one through."""
    real, built = getattr(module, name), []

    def counted(*args):
        out = real(*args)
        if out is not args[-1]:
            built.append(out)
        return out

    monkeypatch.setattr(module, name, counted)
    return built


def test_each_input_is_validated_and_decomposed_once_per_report(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    r_f = write_doc(tmp_path, "r.json", _density_doc(helpers.random_density(rng, 4)))
    t_f = write_doc(tmp_path, "t.json", _density_doc(helpers.random_density(rng, 4)))
    s_f = write_doc(tmp_path, "s.json", {
        "kind": "state", "amplitudes": helpers.complex_pairs(helpers.random_state(rng, 4))})
    o_f = write_doc(tmp_path, "o.json", {
        "kind": "observable", "eigenvalues": [0, 1, 0, 2],
        "eigenbasis": helpers.complex_pairs(helpers.random_unitary(rng, 4))})
    counted = {"validations": _count_builds(monkeypatch, density, "_validated"),
               "rho_primes": _count_builds(monkeypatch, quantum, "_measured")}
    counted.update((name, helpers.count_calls(monkeypatch, owner, name)) for owner, name in [
        (np.linalg, "cholesky"), (np.linalg, "eigvalsh"), (np.linalg, "eigh"), (density, "validate_state"),
        (quantum.Observable, "eigenvalue_partition")])

    def counts(argv):
        for calls in counted.values():
            calls.clear()
        assert run(argv)[0] == 0
        return {name: len(calls) for name, calls in counted.items() if calls}

    assert counts(["distance", "--rho", r_f, "--tau", t_f]) == {
        "validations": 2, "cholesky": 2, "eigh": 2}
    assert counts(["measure", "--state", s_f, "--observable", o_f, "--emit-density"]) == {
        "validate_state": 1, "rho_primes": 1, "eigenvalue_partition": 1}


_ROW = [[0.5, 0.0], [0.0, 0.0]]
_MALFORMED_COMPLEX = {
    "ragged matrix": ("matrix", [_ROW, [[0.0, 0.0]]]),
    "ragged eigenbasis": ("eigenbasis", [[[1, 0], [0, 0]], [[0, 0]]]),
    "huge amplitude": ("amplitudes", [[10 ** 400, 0], [0, 0]]),
    "huge matrix entry": ("matrix", [[[0.5, 0.0], [0.0, 10 ** 400]], [[0.0, 0.0], [0.5, 0.0]]]),
    "huge eigenbasis entry": ("eigenbasis", [[[1, 0], [0, 0]], [[0, 0], [1, -10 ** 400]]]),
    "boolean": ("matrix", [[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    "string": ("amplitudes", [["1", 0], [0, 0]]),
    "null": ("eigenbasis", [[[1, None], [0, 0]], [[0, 0], [1, 0]]]),
    "too deep": ("amplitudes", [[[1, 0]], [[0, 0]]]),
    "too shallow": ("matrix", [[0.5, 0.0], [0.0, 0.5]]),
    "not a pair": ("amplitudes", [[1, 0, 0], [0, 0, 0]]),
    "not an array": ("matrix", {"re": 1}),
}


def _complex_doc_argv(tmp_path, field, value):
    """A measure or distance command line whose ``field`` holds ``value``."""
    state = {"kind": "state", "amplitudes": [[1, 0], [0, 0]]}
    obs = {"kind": "observable", "eigenvalues": [1, 0]}
    if field == "matrix":
        rho = write_doc(tmp_path, "r.json", _density_doc(np.eye(2) / 2))
        tau = write_doc(tmp_path, "t.json", {"kind": "density", "matrix": value})
        return ["distance", "--rho", rho, "--tau", tau]
    if field == "amplitudes":
        state["amplitudes"] = value
    else:
        obs["eigenbasis"] = value
    s_f = write_doc(tmp_path, "s.json", state)
    return ["measure", "--state", s_f, "--observable", write_doc(tmp_path, "o.json", obs)]


@pytest.mark.parametrize("case", sorted(_MALFORMED_COMPLEX))
def test_malformed_complex_arrays_exit_two(tmp_path, case):
    field, value = _MALFORMED_COMPLEX[case]
    code, out, err = run(_complex_doc_argv(tmp_path, field, value))
    assert (code, out) == (2, "") and "input error" in err


@pytest.mark.parametrize("field, value", [
    ("amplitudes", []), ("matrix", []), ("matrix", [[]]), ("eigenbasis", []),
])
def test_empty_complex_arrays_exit_three(tmp_path, field, value):
    code, out, err = run(_complex_doc_argv(tmp_path, field, value))
    assert (code, out) == (3, "") and "invariant violation" in err


def test_complex_arrays_keep_every_bit():
    inf, nan = float("inf"), float("nan")
    pairs = [[0, inf], [-0.0, 0.0], [2 ** 53 + 1, -(2 ** 60) - 1], [0.1, nan], [-inf, 1e-320]]
    got = cli._complex_array([pairs[:2], pairs[2:4]], 2, "doc")
    want = np.array([[complex(re, im) for re, im in pairs[:2]],
                     [complex(re, im) for re, im in pairs[2:4]]])
    assert got.dtype == np.complex128 and got.shape == (2, 2)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    vec = cli._complex_array(pairs, 1, "doc")
    want = np.array([complex(re, im) for re, im in pairs])
    assert vec.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.filterwarnings("error")
def test_distance_infinite_entries_warn_nothing(tmp_path):
    rho = np.eye(2) / 2
    r_f = write_doc(tmp_path, "r.json", _density_doc(rho))
    doc = _density_doc(rho)
    doc["matrix"][0][1] = doc["matrix"][1][0] = [float("inf"), 0.0]
    t_f = write_doc(tmp_path, "t.json", doc)
    code, out, err = run(["distance", "--rho", r_f, "--tau", t_f])
    assert (code, out) == (3, "") and "non-finite" in err


def test_overlong_integer_exits_two(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"kind": "density", "matrix": [[[1' + "0" * 5000 + ', 0]]]}')
    code, out, err = run(["distance", "--rho", str(path), "--tau", str(path)])
    assert (code, out) == (2, "") and "not valid JSON" in err


# ------------------------------------------------------- output format, misc

def test_csv_output(parity_file, uniform6_file):
    code, out, _ = run([
        "entropy", "--pi", parity_file, "--p", uniform6_file, "--format", "csv",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["quantities.h_pi"] == "1/2"
    assert table["identities_checked.unit_interval.pass"] == "true"


def test_json_output_is_byte_deterministic(tmp_path):
    pi_f = write_doc(tmp_path, "pi.json", {
        "kind": "partition", "n": 5, "blocks": [[0, 3], [1, 4], [2]],
    })
    sg_f = write_doc(tmp_path, "sg.json", {
        "kind": "partition", "n": 5, "blocks": [[0, 1, 2], [3, 4]],
    })
    p_f = write_doc(tmp_path, "p.json", {
        "kind": "dist", "weights": [0.25, 0.3, 0.05, 0.25, 0.15],
    })
    runs = [run(["entropy", "--pi", pi_f, "--sigma", sg_f, "--p", p_f])[1] for _ in range(2)]
    assert runs[0] == runs[1]
    # float inputs keep float (17 significant digit) formatting in the report
    assert "0.2" in runs[0]


def test_float_distribution_quantities_are_floats(tmp_path, parity_file):
    p_f = write_doc(tmp_path, "p.json", {
        "kind": "dist", "weights": [1 / 6] * 6,
    })
    code, out, _ = run(["entropy", "--pi", parity_file, "--p", p_f])
    assert code == 0
    h = json.loads(out)["quantities"]["h_pi"]
    assert isinstance(h, float) and h == pytest.approx(0.5, abs=1e-12)


def test_one_parser_serves_every_call_and_handlers_resolve_when_main_runs(monkeypatch, parity_file,
                                                                         uniform6_file):
    cli._parser.cache_clear()
    builds = helpers.count_calls(monkeypatch, cli, "build_parser")
    argv = ["entropy", "--pi", parity_file, "--p", uniform6_file]
    assert run(argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_entropy", lambda args: {"quantities": {"replaced": True}})
    assert run(argv)[:2] == (0, '{"quantities":{"replaced":true}}\n')
    assert run(["measure", "--demo", "die-parity"])[0] == 0
    assert builds == ["build_parser"]


#: Refusals with exit 2, one per message: (argv, the document at DOC, the message).  PI and P
#: are a valid partition of 2 points and a valid distribution on them.
_REFUSALS = {
    "not-an-object": (["entropy", "--pi", "DOC", "--p", "P"], [1, 2], "DOC: expected a JSON object"),
    "missing-field": (["entropy", "--pi", "DOC", "--p", "P"], {"kind": "partition", "n": 2},
                      "DOC: missing field 'blocks'"),
    "weights-not-a-list": (["entropy", "--pi", "PI", "--p", "DOC"], {"kind": "dist", "weights": "1/2"},
                           "DOC: field 'weights' must be a list"),
    "matrix-not-rows": (["entropy", "--pi", "PI", "--sigma", "PI", "--joint", "DOC"],
                        {"kind": "joint", "x": 2, "y": 2, "matrix": ["1/4"] * 4},
                        "DOC: field 'matrix' must be a list of rows"),
    "matrix-shape": (["entropy", "--pi", "PI", "--sigma", "PI", "--joint", "DOC"],
                     {"kind": "joint", "x": 2, "y": 2, "matrix": [["1/4"] * 2, ["1/4"] * 3]},
                     "DOC: matrix shape does not match x=2, y=2"),
    "joint-shannon": (["entropy", "--pi", "PI", "--sigma", "PI", "--joint", "DOC", "--shannon"],
                      {"kind": "joint", "x": 2, "y": 2, "matrix": [["1/4"] * 2] * 2},
                      "entropy: --shannon applies only to the single-universe mode"),
    "demo-and-state": (["measure", "--demo", "die-parity", "--state", "DOC"],
                       {"kind": "state", "amplitudes": [[1.0, 0.0]]},
                       "measure: --demo replaces --state/--observable"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_schema_refusals_exit_two_with_their_message(tmp_path, case):
    argv, doc, message = _REFUSALS[case]
    files = {"DOC": write_doc(tmp_path, "doc.json", doc),
             "PI": write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]}),
             "P": write_doc(tmp_path, "p.json", {"kind": "dist", "weights": ["1/2", "1/2"]})}
    code, out, err = run([files.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"ditlab: input error: {message.replace('DOC', files['DOC'])}\n")


# ------------------------------------------------------- exact-number limits

@pytest.mark.parametrize("text", ["1e1000000", "1E5", "2/1e3", "0.5e0"])
def test_exponent_strings_exit_two(tmp_path, text):
    part = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    dist = write_doc(tmp_path, "p.json", {"kind": "dist", "weights": [text, "0"]})
    obs = write_doc(tmp_path, "f.json", {"kind": "observable", "eigenvalues": [text, 0]})
    state = write_doc(tmp_path, "s.json", {"kind": "state", "amplitudes": [[1, 0], [0, 0]]})
    for argv in (["entropy", "--pi", part, "--p", dist],
                 ["measure", "--state", state, "--observable", obs]):
        code, out, err = run(argv)
        assert (code, out) == (2, "") and "exponent notation" in err


@given(st.text(alphabet="0123456789/+- ._\u0663\u00b2", max_size=12))
@example("007/003")
@example("0/0")
@example("00/000")
@example("1/0")
@example("/3")
@example("3/")
@example("1/2/3")
@example("-1/2")
@example(" 1/2 ")
@example("\u0661/\u0662")  # Arabic-Indic digits
@example("\u00b2/3")  # a superscript digit: isdigit() is true, int() refuses it
@example("1" * 4301 + "/1")
@example("1/" + "1" * 4301)
def test_parse_number_matches_fraction_on_strings(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(cli.InputSchemaError) as raised:
            cli._parse_number(text, "w.json")
        assert str(raised.value) == f"w.json: cannot parse {text!r} as a rational"
    else:
        got = cli._parse_number(text, "w.json")
        assert got == want and type(got) is type(want)


_HUGE = 10 ** 3000 + 7


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_value_too_large_to_print_exits_four(tmp_path, fmt):
    """A valid distribution whose entropies have more digits than Python prints."""
    part = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    dist = write_doc(tmp_path, "p.json", {
        "kind": "dist", "weights": [f"1/{_HUGE}", f"{_HUGE - 1}/{_HUGE}"],
    })
    for argv in (["entropy", "--pi", part, "--p", dist],
                 ["entropy", "--pi", part, "--sigma", part, "--p", dist]):
        code, out, err = run(argv + ["--format", fmt])
        assert (code, out) == (4, "") and "digits" in err


def test_invalid_distribution_with_a_huge_total_exits_three(tmp_path):
    part = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 2, "blocks": [[0], [1]]})
    dist = write_doc(tmp_path, "p.json", {
        "kind": "dist", "weights": [f"1/{_HUGE}", f"1/{_HUGE + 2}"],
    })
    code, out, err = run(["entropy", "--pi", part, "--p", dist])
    assert (code, out) == (3, "") and "do not sum to 1" in err


def test_distribution_with_a_runaway_denominator_exits_four_fast(tmp_path):
    """Each denominator parses, but their common denominator grows past the bound."""
    part = write_doc(tmp_path, "pi.json", {"kind": "partition", "n": 80, "blocks": [list(range(80))]})
    dist = write_doc(tmp_path, "p.json", {
        "kind": "dist", "weights": [f"1/{10 ** 4000 + 2 * i + 1}" for i in range(80)],
    })
    start = time.perf_counter()
    code, out, err = run(["entropy", "--pi", part, "--p", dist])
    assert (code, out) == (4, "") and "common denominator" in err
    assert time.perf_counter() - start < 0.5


# ------------------------------------------------- loaders against their references

@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


def _loaded(load, path):
    """What ``load`` gives for ``path``: the error's class and message, or the distribution's
    exact form, weights, weight types and digest."""
    try:
        p, digest = load(path)
    except (cli.InputSchemaError, DitlabError) as exc:
        return type(exc), str(exc)
    return p._terms, p.size, p.weights, list(map(type, p.weights)), digest


_DIGITS = st.text("0123456789", min_size=1, max_size=5)
_ODD_RATIOS = st.sampled_from([
    "0/0", "1/0", "3/00", "007/003", "00/1", "1" * 4301 + "/1", "1/" + "1" * 4301,
    "\u0661/\u0662", "\u00b2/3", "1e5", "2/1e3", "1/2/3", "-1/2", " 1/2", "1/2,3/4", "/", "",
])


@st.composite
def dist_weights(draw):
    """Weight lists of one of three shapes: floats only, ``"a/b"`` strings only, or a mix with ints."""
    counts = draw(st.lists(st.integers(0, 99), min_size=1, max_size=8).filter(any))
    total = sum(counts)
    shape = draw(st.sampled_from(["floats", "ratios", "mixed"]))
    if shape == "floats":
        weights = [c / total for c in counts]
    else:
        weights = [f"{'0' * draw(st.integers(0, 2))}{c}/{total}" for c in counts]
    edits = st.floats(0, 2) if shape == "floats" else st.one_of(
        _ODD_RATIOS, st.builds("{}/{}".format, _DIGITS, _DIGITS),
        *([st.integers(0, 3), st.floats(0, 1)] if shape == "mixed" else []))
    for _ in range(draw(st.integers(0 if shape != "mixed" else 1, 2))):
        weights[draw(st.integers(0, len(weights) - 1))] = draw(edits)
    return weights


@given(dist_weights())
@example([f"1/{10 ** 4000 + 2 * i + 1}" for i in range(5)])  # a runaway common denominator
@example(["2/4", "0/3", "003/6"])  # unreduced ratios: the common denominator is 2
@example([])
@example([0.5, 0.5, True])
@settings(deadline=None)
def test_dist_loader_equals_its_reference(doc_dir, weights):
    path = doc_dir / "p.json"
    path.write_text(json.dumps({"kind": "dist", "weights": weights}))
    got, want = _loaded(cli._load_dist, path), _loaded(helpers.load_dist_loop, path)
    assert got == want, (got, want)


def _joint_loaded(load, path):
    """What ``load`` gives for ``path``: the error's class and message, or the joint
    distribution's rows, cell types, exact form of its cells and digest."""
    try:
        j, digest = load(path)
    except (cli.InputSchemaError, DitlabError) as exc:
        return type(exc), str(exc)
    return j.weights, [list(map(type, r)) for r in j.weights], j._flat._terms, digest


@st.composite
def joint_documents(draw):
    """A :func:`dist_weights` list cut into rows of a length that divides it."""
    cells = draw(dist_weights())
    y = draw(st.sampled_from([d for d in range(1, len(cells) + 1) if len(cells) % d == 0]))
    return {"x": len(cells) // y, "y": y, "matrix": [cells[i:i + y] for i in range(0, len(cells), y)]}


@given(joint_documents())
@example({"x": 0, "y": 2, "matrix": []})
@example({"x": 2, "y": 0, "matrix": [[], []]})
@example({"x": 0, "y": 0, "matrix": []})
@example({"x": 1, "y": 2, "matrix": [["0/0", "1/1"]]})
@example({"x": 2, "y": 1, "matrix": [["1/0"], ["1/1"]]})
@example({"x": 1, "y": 2, "matrix": [["1" * 4301 + "/1", "0/1"]]})
@example({"x": 1, "y": 2, "matrix": [["1/" + "1" * 4301, "1/1"]]})
@example({"x": 1, "y": 2, "matrix": [["1e5", "0/1"]]})
@example({"x": 2, "y": 2, "matrix": [["2/8", "0/3"], ["003/12", "6/12"]]})  # unreduced ratios
@example({"x": 2, "y": 2, "matrix": [[0, 0.25], ["1/4", "1/2"]]})  # ints, floats and strings
@settings(deadline=None)
def test_joint_loader_equals_its_reference(doc_dir, doc):
    path = doc_dir / "j.json"
    path.write_text(json.dumps({"kind": "joint", **doc}))
    got, want = _joint_loaded(cli._load_joint, path), _joint_loaded(helpers.load_joint_loop, path)
    assert got == want, (got, want)


def test_a_loaded_exact_distribution_behaves_as_one_built_from_its_weights(tmp_path):
    path = write_doc(tmp_path, "p.json", {"kind": "dist", "weights": ["2/4", "1/6", "002/6", "0/5"]})
    built = ProbDist((F(1, 2), F(1, 6), F(1, 3), F(0)))

    def loaded():
        p = cli._load_dist(path)[0]
        assert "weights" not in p.__dict__ and p._terms == built._terms and p.size == 4
        assert set(p.__dict__) == {"_terms"}
        return p

    assert loaded() == built and built == loaded() and hash(loaded()) == hash(built)
    assert repr(loaded()) == repr(built)
    for twin in (pickle.loads(pickle.dumps(loaded())), copy.copy(loaded()), copy.deepcopy(loaded()),
                 dataclasses.replace(loaded())):
        assert twin == built and twin._terms == built._terms
    p = loaded()
    assert p.weights is p.weights and list(map(type, p.weights)) == [Fraction] * 4
    assert p.prob([0, 2]) == F(5, 6) and classical.dist_entropy(p) == classical.dist_entropy(built)


# ------------------------------------------------------- failed identity checks

def test_a_failed_identity_prints_the_report_and_exits_three(monkeypatch):
    inputs = Path(__file__).parent / "golden" / "inputs"
    argv = ["entropy", "--pi", str(inputs / "parity6.json"), "--sigma", str(inputs / "thirds6.json"),
            "--p", str(inputs / "p6_exact.json"), "--shannon"]
    _, good, _ = run(argv)
    real = classical.shannon_profile_from_transform

    def skewed(*args):
        prof = real(*args)
        return dataclasses.replace(prof, h_pi_given_sigma=prof.h_pi_given_sigma + 0.5)

    monkeypatch.setattr(classical, "shannon_profile_from_transform", skewed)
    code, out, err = run(argv)
    assert (code, err) == (3, "ditlab: identity check failed: shannon_transform\n")
    want = json.loads(good)
    want["identities_checked"]["shannon_transform"] = {"pass": False, "residual": 0.5}
    assert json.loads(out) == want


def test_an_identity_naming_a_quantity_the_report_does_not_print_exits_three(monkeypatch):
    real = cli._report

    def with_stray_row(command, inputs, quantities, identities, **sections):
        rows = [*identities, ("stray", 0.0, 0.0, ("h_F_psi", "h_stray"))]
        return real(command, inputs, quantities, rows, **sections)

    monkeypatch.setattr(cli, "_report", with_stray_row)
    assert run(["measure", "--demo", "die-parity"]) == (
        3, "", "ditlab: invariant violation: identity stray covers h_stray, which the report does not print\n")


def test_a_wrong_join_fails_the_shannon_transform_identity(monkeypatch):
    """The Shannon joint entropy is summed over the join's own blocks, not read off the
    transform's block-pair table, so a wrong join shows up as a failed identity."""
    inputs = Path(__file__).parent / "golden" / "inputs"
    monkeypatch.setattr(classical, "join", lambda pi, sigma: make_partition(6, [range(6)]))
    code, _, err = run(["entropy", "--pi", str(inputs / "parity6.json"),
                        "--sigma", str(inputs / "thirds6.json"), "--p", str(inputs / "p6_exact.json"),
                        "--shannon"])
    assert (code, err) == (3, "ditlab: identity check failed: shannon_transform\n")
