"""Independent oracles linked to each other, and re-checks that must raise."""

from __future__ import annotations

import io
import json
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from ditlab import classical, cli, density, errors, logic, quantum
from ditlab.classical import JointDist, ProbDist, entropy_profile, twoset_profile
from ditlab.errors import InternalInconsistency
from ditlab.partitions import make_partition, top
from ditlab.quantum import Observable, measure, spectral_pair_bruteforce


def _partition(labels):
    blocks = {}
    for x, label in enumerate(labels):
        blocks.setdefault(label, []).append(x)
    return make_partition(len(labels), blocks.values())


def _exact_weights(n):
    counts = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    return counts.map(lambda c: tuple(Fraction(x, sum(c)) for x in c))


@st.composite
def exact_pairs(draw):
    n = draw(st.integers(1, 5))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return _partition(draw(labels)), _partition(draw(labels)), ProbDist(draw(_exact_weights(n)))


@given(exact_pairs())
@settings(max_examples=80, deadline=None)
def test_region_table_equals_ditset_regions_on_a_diagonal_joint(case):
    pi, sigma, p = case
    n = p.size
    diag = JointDist(tuple(
        tuple(p.weights[x] if x == y else 0 for y in range(n)) for x in range(n)
    ))
    assert twoset_profile(pi, sigma, diag, "regions") == entropy_profile(pi, sigma, p, "regions")


@given(
    st.integers(1, 5).flatmap(_exact_weights),
    st.integers(1, 5).flatmap(_exact_weights),
)
@settings(max_examples=60, deadline=None)
def test_spectral_oracle_equals_top_top_two_set_regions(lam, mu):
    lam = [float(x) for x in lam]
    mu = [float(x) for x in mu]
    joint = JointDist(tuple(tuple(a * b for b in mu) for a in lam))
    brute = spectral_pair_bruteforce(lam, mu)
    table = twoset_profile(top(len(lam)), top(len(mu)), joint, "regions")
    for a, b in zip(astuple(brute), astuple(table)):
        assert abs(a - b) <= 1e-12


@st.composite
def measurements(draw):
    n = draw(st.integers(1, 8))
    # Few distinct labels, so most draws have degenerate eigenvalue classes.
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = helpers.random_unitary(rng, n)
    return Observable(tuple(labels), u), u, helpers.random_state(rng, n)


@given(measurements())
@settings(max_examples=80, deadline=None)
def test_qudit_mask_equals_luders_over_eigenspace_projectors(case):
    F, u, psi = case
    projs = density.projectors_from_eigenbasis(u, F.eigenvalue_partition())
    reference = density.luders(np.outer(psi, psi.conj()), projs)
    assert np.max(np.abs(measure(F, psi) - reference)) <= 1e-12


@st.composite
def report_inputs(draw):
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (helpers.random_density(rng, n), helpers.random_density(rng, n),
            Observable(tuple(labels), helpers.random_unitary(rng, n)), helpers.random_state(rng, n))


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def _cli_report(report_dir, command, documents, *options):
    argv = [command, *options]
    for flag, doc in documents.items():
        path = report_dir / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    out, err = io.StringIO(), io.StringIO()
    assert (cli.main(argv, stdout=out, stderr=err), err.getvalue()) == (0, "")
    return json.loads(out.getvalue())


@given(report_inputs())
@settings(max_examples=60, deadline=None)
def test_cli_reports_equal_the_public_functions_bit_for_bit(report_dir, case):
    """The CLI shares one validated input between quantities; the numbers must not move."""
    rho, tau, F, psi = case
    rep = _cli_report(report_dir, "distance", {
        "rho": {"kind": "density", "matrix": helpers.complex_pairs(rho)},
        "tau": {"kind": "density", "matrix": helpers.complex_pairs(tau)},
    })
    cross, d = quantum.quantum_cross_entropy(rho, tau), quantum.quantum_hamming(rho, tau)
    hs = quantum.hilbert_schmidt_distance(rho, tau)
    assert rep["quantities"] == {
        "h_rho": density.dm_logical_entropy(rho), "h_tau": density.dm_logical_entropy(tau),
        "cross_entropy": cross, "hamming_distance": d, "hilbert_schmidt": hs,
    }
    assert {k: v["residual"] for k, v in rep["identities_checked"].items()} == {
        "hamming_equals_hilbert_schmidt": abs(d - hs),
        "cross_entropy_symmetric": abs(cross - quantum.quantum_cross_entropy(tau, rho)),
        "nonnegative": max(0.0, -d),
    }

    rep = _cli_report(report_dir, "measure", {
        "state": {"kind": "state", "amplitudes": helpers.complex_pairs(psi)},
        "observable": {"kind": "observable", "eigenvalues": list(F.eigenvalues),
                       "eigenbasis": helpers.complex_pairs(F.eigenbasis)},
    }, "--emit-density")
    h, check = quantum.h_observable_state(F, psi), quantum.quantum_fundamental_check(F, psi)
    assert rep["quantities"] == {
        "h_F_psi": h.value, "h_via_partition": h.via_partition,
        "h_via_measurement": h.via_measurement, "entropy_increase": check.entropy_increase,
        "decohered_sumsq": check.decohered_sumsq,
    }
    assert {k: v["residual"] for k, v in rep["identities_checked"].items()} == {
        "route_partition_agrees": abs(h.value - h.via_partition),
        "route_measurement_agrees": abs(h.value - h.via_measurement),
        "fundamental_theorem": check.residual,
    }
    assert rep["matrices"]["rho_prime"] == helpers.complex_pairs(measure(F, psi))


def test_witness_recheck_raises_when_reevaluation_disagrees(monkeypatch):
    formula = logic.parse("p | q")
    real = logic.evaluate
    calls = []

    def top_on_recheck(f, env, universe):
        if f is not formula:
            return real(f, env, universe)
        calls.append(env)
        return real(f, env, universe) if len(calls) == 1 else top(universe)

    monkeypatch.setattr(logic, "evaluate", top_on_recheck)
    with pytest.raises(InternalInconsistency):
        logic.check_tautology(formula, max_n=3)
    assert len(calls) == 2


# ------------------------------------------- every cross-check's failure path

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _pair(n):
    """Two crossed partitions of ``range(n)`` and a float distribution on it."""
    w = np.arange(1, n + 1, dtype=float)
    return (_partition([x % 2 for x in range(n)]), _partition([x % 3 for x in range(n)]),
            ProbDist(tuple(float(x) for x in w / w.sum())))


def _joint(x, y):
    w = np.arange(1, x * y + 1, dtype=float).reshape(x, y)
    return JointDist(tuple(tuple(float(v) for v in row) for row in w / w.sum()))


def _densities(n):
    rng = np.random.default_rng(n)
    return helpers.random_density(rng, n), helpers.random_density(rng, n)


def _shifted(fn, delta):
    return lambda *args: fn(*args) + delta


def _skewed_table(fn, a, b, delta):
    def table(*args):
        t = fn(*args)
        t[a][b] += delta
        return t
    return table


def test_entropy_profile_raises_when_its_ditset_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(classical, "product_measure",
                        _shifted(classical.product_measure, Fraction(1, 10 ** 9)))
    with pytest.raises(InternalInconsistency, match="entropy profile: closed form and oracle"):
        entropy_profile(_partition([0, 0, 1]), _partition([0, 1, 1]), ProbDist.uniform(3))


def test_twoset_profile_raises_when_its_region_oracle_disagrees(monkeypatch):
    monkeypatch.setattr(classical, "_region_table",
                        _skewed_table(classical._region_table, 1, 1, 1e-9))
    with pytest.raises(InternalInconsistency, match="two-set profile: closed form and oracle"):
        twoset_profile(top(2), top(3), _joint(2, 3))


def test_density_pair_profile_raises_when_its_spectral_oracle_disagrees(monkeypatch):
    real = quantum.spectral_pair_bruteforce
    monkeypatch.setattr(quantum, "spectral_pair_bruteforce",
                        lambda lam, mu: quantum.QuantumProfile(*astuple(real(lam, mu))[:-1], 0.5))
    with pytest.raises(InternalInconsistency, match="density pair profile: closed form and oracle"):
        quantum.density_pair_profile(*_densities(3))


@pytest.mark.parametrize("route", ["pairs", "partition", "measurement"])
def test_h_observable_state_raises_when_one_route_disagrees(monkeypatch, route):
    if route == "pairs":
        monkeypatch.setattr(classical, "_region_table",
                            _skewed_table(classical._region_table, 1, 0, 1e-8))
    elif route == "partition":
        monkeypatch.setattr(classical, "logical_entropy", _shifted(classical.logical_entropy, 1e-8))
    else:
        monkeypatch.setattr(density, "_entropy", _shifted(density._entropy, 1e-8))
    with pytest.raises(InternalInconsistency, match=r"h\(F:psi\) routes"):
        quantum.h_observable_state(Observable((0, 1, 1)), np.ones(3) / np.sqrt(3))


def test_quantum_cross_entropy_raises_when_its_overlap_expansion_disagrees(monkeypatch):
    monkeypatch.setattr(density, "_trace_product", _shifted(density._trace_product, 1e-8))
    with pytest.raises(InternalInconsistency, match="tr\\[rho tau\\] and its overlap expansion"):
        quantum.quantum_cross_entropy(*_densities(3))


def test_quantum_hamming_raises_when_its_two_forms_disagree(monkeypatch):
    # Shifting every trace leaves the trace form unchanged and moves tr[(r - t)^2].
    monkeypatch.setattr(density, "_trace_product", _shifted(density._trace_product, 1e-8))
    with pytest.raises(InternalInconsistency, match="trace form and Hilbert-Schmidt form"):
        quantum.quantum_hamming(*_densities(3))


def test_witness_recheck_names_the_check(monkeypatch):
    real = logic.evaluate
    found = []

    def top_after_a_counterexample(f, env, universe):
        value = top(universe) if found else real(f, env, universe)
        if value != top(universe):
            found.append(value)
        return value

    monkeypatch.setattr(logic, "evaluate", top_after_a_counterexample)
    with pytest.raises(InternalInconsistency, match="counterexample at n=2 and its re-evaluation"):
        logic.check_tautology(logic.parse("p"), max_n=2)
    assert len(found) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compare_never_lets_nan_or_infinity_agree(bad):
    with pytest.raises(InternalInconsistency, match="on 0"):
        errors._agree("check", (bad,), (bad,), False, 1.0)
    errors._agree("check", (0.5, Fraction(1, 3)), (0.5 + 1e-13, Fraction(1, 3)), False, 1e-12)
    errors._agree("check", (Fraction(1, 3),), (Fraction(1, 3),), True, 0)


def test_nan_on_both_routes_raises(monkeypatch):
    monkeypatch.setattr(density, "_trace_product", lambda a, b: float("nan"))
    with pytest.raises(InternalInconsistency, match="trace form and Hilbert-Schmidt form"):
        quantum.quantum_hamming(*_densities(2))


class OracleRan(Exception):
    pass


def _refuse(*args):
    raise OracleRan


@pytest.fixture
def oracles_refused(monkeypatch):
    for module, name in ((classical, "ditset"), (classical, "_region_table"),
                         (quantum, "spectral_pair_bruteforce")):
        monkeypatch.setattr(module, name, _refuse)


def test_closed_method_never_runs_the_oracle(oracles_refused):
    entropy_profile(*_pair(5), "closed")
    twoset_profile(top(2), top(3), _joint(2, 3), "closed")
    psi2 = np.ones(4) / 2
    quantum.noncommuting_profile(Observable((0, 1)), Observable((0, 1), HADAMARD), psi2, "closed")


def test_each_oracle_runs_up_to_its_cutoff_and_not_above(oracles_refused):
    """n <= 64 for the ditset oracle; (cells)^2 <= 10^6 for the region oracles."""
    at_cutoff = [
        lambda: entropy_profile(*_pair(classical.DITSET_MATERIALIZE_BOUND)),
        lambda: twoset_profile(top(25), top(40), _joint(25, 40)),
        lambda: quantum.density_pair_profile(*_densities(31)),
    ]
    above = [
        lambda: entropy_profile(*_pair(classical.DITSET_MATERIALIZE_BOUND + 1)),
        lambda: twoset_profile(top(7), top(143), _joint(7, 143)),
        lambda: quantum.density_pair_profile(*_densities(32)),
    ]
    for run in at_cutoff:
        with pytest.raises(OracleRan):
            run()
    for run in above:
        run()


def test_unknown_method_raises_value_error():
    psi2 = np.ones(4) / 2
    calls = [
        lambda: entropy_profile(*_pair(3), "fast"),
        lambda: twoset_profile(top(2), top(3), _joint(2, 3), "fast"),
        lambda: quantum.noncommuting_profile(Observable((0, 1)), Observable((0, 1)), psi2, "fast"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown method 'fast'"):
            call()
