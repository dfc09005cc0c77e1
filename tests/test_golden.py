"""CLI reports on fixed inputs, compared byte for byte.

Each case runs ``cli.main`` in-process on the JSON documents in
``tests/golden/inputs`` and compares its stdout with ``tests/golden/<case>.out``.
The float-weight cases pin the summation order of the profile routes: a
change that reorders a sum changes the last digits of these reports.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from ditlab import cli

GOLDEN = Path(__file__).parent / "golden"

#: Case name -> argv; an argument starting with "@" names a file in inputs/.
CASES = {
    "entropy_single_exact_shannon":
        ["entropy", "--pi", "@parity6.json", "--p", "@p6_exact.json", "--shannon"],
    "entropy_pair_exact_shannon":
        ["entropy", "--pi", "@parity6.json", "--sigma", "@thirds6.json",
         "--p", "@p6_exact.json", "--shannon"],
    "entropy_pair_float_shannon":
        ["entropy", "--pi", "@pi9.json", "--sigma", "@sigma9.json",
         "--p", "@p9_float.json", "--shannon"],
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
    "distance":
        ["distance", "--rho", "@rho.json", "--tau", "@tau.json"],
}


def _argv(args):
    return [str(GOLDEN / "inputs" / a[1:]) if a.startswith("@") else a for a in args]


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(_argv(CASES[case]), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
