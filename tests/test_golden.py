"""CLI reports on fixed inputs, compared byte for byte.

Each case runs ``cli.main`` in-process on the JSON documents in
``tests/golden/inputs`` and compares its stdout with ``tests/golden/<case>.out``.
The float-weight cases pin the summation order of the profile routes: a
change that reorders a sum changes the last digits of these reports.

A second test walks the same cases and lists, for each, the printed
quantities that no identity row of its report names (``UNCOVERED``).
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from ditlab import cli

GOLDEN = Path(__file__).parent / "golden"

#: Case name -> argv; an argument starting with "@" names a file in inputs/.
CASES = {
    "entropy_single_exact":
        ["entropy", "--pi", "@parity6.json", "--p", "@p6_exact.json"],
    "entropy_single_exact_shannon":
        ["entropy", "--pi", "@parity6.json", "--p", "@p6_exact.json", "--shannon"],
    "entropy_pair_exact_shannon":
        ["entropy", "--pi", "@parity6.json", "--sigma", "@thirds6.json",
         "--p", "@p6_exact.json", "--shannon"],
    "entropy_pair_float_shannon":
        ["entropy", "--pi", "@pi9.json", "--sigma", "@sigma9.json",
         "--p", "@p9_float.json", "--shannon"],
    "entropy_pair_n64_exact_shannon":
        ["entropy", "--pi", "@pi64.json", "--sigma", "@sigma64.json",
         "--p", "@p64_exact.json", "--shannon"],
    "entropy_pair_exact_csv":
        ["entropy", "--pi", "@parity6.json", "--sigma", "@thirds6.json",
         "--p", "@p6_exact.json", "--format", "csv"],
    "entropy_twoset_exact":
        ["entropy", "--pi", "@x4.json", "--sigma", "@y5.json", "--joint", "@joint_exact.json"],
    "entropy_twoset_float":
        ["entropy", "--pi", "@x4.json", "--sigma", "@y5.json", "--joint", "@joint_float.json"],
    "tautology_modus_ponens":
        ["tautology", "--expr", "(s & (s -> p)) -> p", "--max-n", "4"],
    "tautology_counterexample":
        ["tautology", "--formula", "@formula_or.json"],
    "tautology_counterexample_csv":
        ["tautology", "--formula", "@formula_or.json", "--format", "csv"],
    "measure_demo_density":
        ["measure", "--demo", "die-parity", "--emit-density"],
    "measure_demo_density_csv":
        ["measure", "--demo", "die-parity", "--emit-density", "--format", "csv"],
    "measure_files":
        ["measure", "--state", "@state4.json", "--observable", "@observable4.json"],
    "distance":
        ["distance", "--rho", "@rho.json", "--tau", "@tau.json"],
    "distance_csv":
        ["distance", "--rho", "@rho.json", "--tau", "@tau.json", "--format", "csv"],
}


_PAIR = ["hamming_distance", "cross_entropy"]
_PAIR_SHANNON = [*_PAIR, "H_pi", "H_sigma", "H_joint", "H_sigma_given_pi", "H_mutual"]
_SEARCH = ["formula", "status", "bound", "planned_evaluations"]

#: Case name -> the printed quantities that no identity row names, in print order.
UNCOVERED = {
    "entropy_single_exact": [],
    "entropy_single_exact_shannon": ["H_pi"],
    "entropy_pair_exact_shannon": _PAIR_SHANNON,
    "entropy_pair_float_shannon": _PAIR_SHANNON,
    "entropy_pair_n64_exact_shannon": _PAIR_SHANNON,
    "entropy_pair_exact_csv": _PAIR,
    "entropy_twoset_exact": [],
    "entropy_twoset_float": [],
    "tautology_modus_ponens": [*_SEARCH, "witness"],
    "tautology_counterexample": _SEARCH,
    "tautology_counterexample_csv": _SEARCH,
    "measure_demo_density": [],
    "measure_demo_density_csv": [],
    "measure_files": [],
    "distance": ["h_rho", "h_tau"],
    "distance_csv": ["h_rho", "h_tau"],
}


def _argv(args):
    return [str(GOLDEN / "inputs" / a[1:]) if a.startswith("@") else a for a in args]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(_argv(CASES[case]), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_uncovered_quantities_are_the_listed_ones(case, monkeypatch):
    """Each report's quantities not named by any identity row it was built from."""
    real, calls = cli._report, []

    def recording(command, inputs, quantities, identities, **sections):
        calls.append((quantities, identities))
        return real(command, inputs, quantities, identities, **sections)

    monkeypatch.setattr(cli, "_report", recording)
    assert cli.main(_argv(CASES[case]), stdout=io.StringIO(), stderr=io.StringIO()) == 0
    [(quantities, identities)] = calls
    covered = {name for *_, covers in identities for name in covers}
    assert [name for name in quantities if name not in covered] == UNCOVERED[case]
