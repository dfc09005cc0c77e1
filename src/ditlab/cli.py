"""Command line interface.

Four subcommands wrap the library: ``entropy`` (partition profiles),
``tautology`` (bounded search over partition assignments), ``measure``
(Lüders measurement accounting) and ``distance`` (density-matrix
distances).  Inputs are small JSON documents tagged with a ``kind`` field;
reports echo a hash of each input, list named quantities, and re-verify
the defining identities with explicit residuals.

Output is byte-for-byte deterministic: keys are emitted in fixed order,
floats with 17 significant digits, exact rationals as ``"a/b"`` strings.
Exit codes: 0 success, 2 malformed input, 3 mathematical invariant
violated (including any failed identity in the report), 4 work limit
exceeded (including an exact value with more digits than Python prints).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import classical, density, logic, quantum
from .classical import JointDist, ProbDist
from .errors import BoundExceeded, DitlabError, FormulaSyntaxError
from .partitions import make_partition
from .quantum import Observable

#: Environment variable overriding the tautology search work limit.
WORK_LIMIT_ENV = "DITLAB_WORK_LIMIT"


class InputSchemaError(Exception):
    """The input document is malformed (wrong kind, missing field, bad type)."""


# ------------------------------------------------------------------- loading

def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputSchemaError(f"cannot read {path}: {exc}") from exc


def _load_document(path: str, expected_kind: str, *required: str):
    """The JSON object at ``path``, of kind ``expected_kind``, with the ``required`` fields."""
    raw = _read_file(path)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer too long to convert
        raise InputSchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputSchemaError(f"{path}: expected a JSON object")
    kind = doc.get("kind")
    if kind != expected_kind:
        raise InputSchemaError(f"{path}: expected kind {expected_kind!r}, found {kind!r}")
    for field in required:
        if field not in doc:
            raise InputSchemaError(f"{path}: missing field {field!r}")
    return doc, hashlib.sha256(raw).hexdigest()


def _parse_number(x, path):
    """JSON number or ``"a/b"`` string -> int/Fraction (exact) or float.

    Strings in exponent notation are refused: ``Fraction`` would build
    ``10 ** exponent`` in full, with no bound on the work.
    """
    if isinstance(x, bool):
        raise InputSchemaError(f"{path}: boolean is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        if "e" in x.lower():
            raise InputSchemaError(f"{path}: exponent notation in {x!r}; write a rational as a/b")
        num, _, den = x.partition("/")
        try:
            if x.isascii() and num.isdigit() and den.isdigit():  # what Fraction(x) parses, without its regex
                return Fraction(int(num), int(den))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputSchemaError(f"{path}: cannot parse {x!r} as a rational") from exc
    raise InputSchemaError(f"{path}: expected a number, got {type(x).__name__}")


def _complex_array(value, ndim: int, path: str) -> np.ndarray:
    """A JSON array nested ``ndim`` deep in ``[re, im]`` pairs of numbers, as complex128.

    An empty array keeps its shape, so the validators reject it.
    """
    a = np.array(value, dtype=object)
    if a.size == 0 and 1 <= a.ndim <= ndim:
        return np.zeros(a.shape, dtype=np.complex128)
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not set(map(type, a.flat)) <= {int, float}:
        raise InputSchemaError(f"{path}: expected a {ndim}-deep array of [re, im] pairs of numbers")
    try:
        return a.astype(np.float64).view(np.complex128)[..., 0]
    except OverflowError as exc:
        raise InputSchemaError(f"{path}: {exc}") from exc


def _load_partition(path: str):
    doc, digest = _load_document(path, "partition", "n", "blocks")
    n, blocks = doc["n"], doc["blocks"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputSchemaError(f"{path}: field 'n' must be an integer")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputSchemaError(f"{path}: field 'blocks' must be a list of lists")
    return make_partition(n, blocks), digest


def _load_dist(path: str):
    doc, digest = _load_document(path, "dist", "weights")
    weights = doc["weights"]
    if not isinstance(weights, list):
        raise InputSchemaError(f"{path}: field 'weights' must be a list")
    return ProbDist(tuple(_parse_number(w, path) for w in weights)), digest


def _load_joint(path: str):
    doc, digest = _load_document(path, "joint", "x", "y", "matrix")
    x, y, matrix = doc["x"], doc["y"], doc["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputSchemaError(f"{path}: field 'matrix' must be a list of rows")
    if len(matrix) != x or any(len(r) != y for r in matrix):
        raise InputSchemaError(f"{path}: matrix shape does not match x={x}, y={y}")
    rows = tuple(tuple(_parse_number(w, path) for w in r) for r in matrix)
    return JointDist(rows), digest


def _load_formula(path: str):
    doc, digest = _load_document(path, "formula", "text")
    text = doc["text"]
    if not isinstance(text, str):
        raise InputSchemaError(f"{path}: field 'text' must be a string")
    return text, digest


def _load_state(path: str):
    doc, digest = _load_document(path, "state", "amplitudes")
    return _complex_array(doc["amplitudes"], 1, path), digest


def _load_observable(path: str):
    doc, digest = _load_document(path, "observable", "eigenvalues")
    eigenvalues = doc["eigenvalues"]
    if not isinstance(eigenvalues, list):
        raise InputSchemaError(f"{path}: field 'eigenvalues' must be a list")
    vals = tuple(_parse_number(v, path) for v in eigenvalues)
    basis = None
    if doc.get("eigenbasis") is not None:
        basis = _complex_array(doc["eigenbasis"], 2, path)
    return Observable(vals, basis), digest


def _load_density(path: str):
    doc, digest = _load_document(path, "density", "matrix")
    return _complex_array(doc["matrix"], 2, path), digest


# ------------------------------------------------------------------ emission

def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (Fraction, int)):
        try:
            text = str(v)
        except ValueError as exc:
            raise BoundExceeded("a value has more digits than Python converts to text") from exc
        return json.dumps(text) if isinstance(v, Fraction) else text
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _dumps(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    return _scalar(obj)


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, _scalar(obj).strip('"')))


def _render(report: dict, fmt: str) -> str:
    """The whole report as text, so a value that cannot be printed leaves stdout empty."""
    if fmt == "json":
        return _dumps(report) + "\n"
    rows: list = []
    for section in ("quantities", "identities_checked"):
        _flatten(section, report.get(section, {}), rows)
    return "name,value\n" + "".join(f"{name},{value}\n" for name, value in rows)


def _matrix_json(mat: np.ndarray) -> list:
    m = np.asarray(mat, dtype=np.complex128)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def _identity(residual, tol: float) -> dict:
    res = abs(float(residual))
    return {"pass": res <= tol, "residual": res}


def _report(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "inputs": {k: {"sha256": v} for k, v in inputs.items()},
        "quantities": {},
        "identities_checked": {},
    }


# ------------------------------------------------------------------ commands

def cmd_entropy(args) -> dict:
    if args.joint is not None and args.sigma is None:
        raise InputSchemaError("entropy: --joint requires --sigma (a partition of the Y side)")
    if args.joint is not None and args.shannon:
        raise InputSchemaError("entropy: --shannon applies only to the single-universe mode")

    pi, pi_digest = _load_partition(args.pi)
    inputs = {"pi": pi_digest}
    sigma = None
    if args.sigma is not None:
        sigma, inputs["sigma"] = _load_partition(args.sigma)

    if args.joint is not None:
        joint, inputs["joint"] = _load_joint(args.joint)
    else:
        p, inputs["p"] = _load_dist(args.p)
    report = _report("entropy", inputs)
    q = report["quantities"]
    ids = report["identities_checked"]
    if args.joint is not None:
        prof = classical.twoset_profile(pi, sigma, joint)
    elif sigma is None:
        h = classical.logical_entropy(pi, p)
        q["h_pi"] = h
        ids["unit_interval"] = _identity(max(0.0, float(-h), float(h - 1)), classical.FLOAT_TOL)
        if args.shannon:
            q["H_pi"] = classical.shannon_entropy(pi, p)
        return report
    else:
        # One carrier, so the three profiles share its block sums.
        blocks = classical._blocks(pi, sigma, p, "entropy profile")
        prof = classical.entropy_profile(pi, sigma, blocks)

    q.update(asdict(prof))
    if args.joint is None:
        q["hamming_distance"] = prof.h_pi_given_sigma + prof.h_sigma_given_pi
        q["cross_entropy"] = prof.h_joint
    chain = prof.h_joint - (prof.h_pi_given_sigma + prof.mutual + prof.h_sigma_given_pi)
    venn = prof.mutual - (prof.h_pi + prof.h_sigma - prof.h_joint)
    ids["venn_chain"] = _identity(chain, classical.FLOAT_TOL)
    ids["venn_mutual"] = _identity(venn, classical.FLOAT_TOL)
    if args.shannon:
        sprof = classical.shannon_profile(pi, sigma, blocks)
        q.update(("H_" + k.removeprefix("h_"), v) for k, v in asdict(sprof).items())
        tprof = classical.shannon_profile_from_transform(pi, sigma, blocks)
        ids["shannon_transform"] = _identity(
            tprof.h_pi_given_sigma - sprof.h_pi_given_sigma, classical.FLOAT_TOL
        )
    return report


def cmd_tautology(args) -> dict:
    if args.max_n < 2:
        raise InputSchemaError(f"tautology: --max-n must be >= 2, got {args.max_n}")
    if args.expr is not None:
        text = args.expr
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        text, digest = _load_formula(args.formula)
    f = logic.parse(text)

    limit = logic.DEFAULT_WORK_LIMIT
    env_limit = os.environ.get(WORK_LIMIT_ENV)
    if env_limit is not None:
        try:
            limit = int(env_limit)
        except ValueError as exc:
            raise InputSchemaError(
                f"{WORK_LIMIT_ENV}={env_limit!r} is not an integer"
            ) from exc

    verdict = logic.check_tautology(f, args.max_n, work_limit=limit)
    report = _report("tautology", {"formula": digest})
    q = report["quantities"]
    q["formula"] = logic.to_text(f)
    q["status"] = verdict.status.value
    q["bound"] = verdict.bound
    q["planned_evaluations"] = logic.planned_evaluations(f, args.max_n)
    if verdict.witness is None:
        q["witness"] = None
    else:
        n, env = verdict.witness
        q["witness"] = {
            "n": n,
            "assignment": {
                name: [list(b) for b in part.blocks] for name, part in sorted(env.items())
            },
        }
        value = logic.evaluate(f, env, n)
        q["witness_value"] = [list(b) for b in value.blocks]
        nontop = 0.0 if value.n_blocks < n else 1.0
        report["identities_checked"]["witness_reevaluates_nontop"] = _identity(nontop, 0.0)
    return report


_DEMOS = ("die-parity",)


def _die_parity_inputs():
    """Uniform superposition over six faces; eigenvalue 1 on odd faces, 0 on even."""
    amp = 1.0 / math.sqrt(6.0)
    state = np.full(6, amp, dtype=np.complex128)
    obs = Observable((1, 0, 1, 0, 1, 0))
    return state, obs


def cmd_measure(args) -> dict:
    if args.demo is not None:
        if args.demo not in _DEMOS:
            raise InputSchemaError(f"measure: unknown demo {args.demo!r}; choose from {_DEMOS}")
        if args.state is not None or args.observable is not None:
            raise InputSchemaError("measure: --demo replaces --state/--observable")
        state, obs = _die_parity_inputs()
        spec = json.dumps({"demo": args.demo}).encode("utf-8")
        inputs = {"demo": hashlib.sha256(spec).hexdigest()}
    else:
        if args.state is None or args.observable is None:
            raise InputSchemaError("measure: --state and --observable are both required")
        state, state_digest = _load_state(args.state)
        obs, obs_digest = _load_observable(args.observable)
        inputs = {"state": state_digest, "observable": obs_digest}

    state = quantum._measured(obs, state)
    h = quantum.h_observable_state(obs, state)
    check = quantum.quantum_fundamental_check(obs, state)
    report = _report("measure", inputs)
    q = report["quantities"]
    q["h_F_psi"] = h.value
    q["h_via_partition"] = h.via_partition
    q["h_via_measurement"] = h.via_measurement
    q["entropy_increase"] = check.entropy_increase
    q["decohered_sumsq"] = check.decohered_sumsq
    ids = report["identities_checked"]
    ids["route_partition_agrees"] = _identity(h.value - h.via_partition, quantum.ROUTE_TOL)
    ids["route_measurement_agrees"] = _identity(h.value - h.via_measurement, quantum.ROUTE_TOL)
    ids["fundamental_theorem"] = _identity(check.residual, quantum.ROUTE_TOL)
    if args.emit_density:
        report["matrices"] = {"rho_prime": _matrix_json(quantum.measure(obs, state))}
    return report


def cmd_distance(args) -> dict:
    rho, rho_digest = _load_density(args.rho)
    tau, tau_digest = _load_density(args.tau)
    rho, tau = density._pair(rho, tau)
    report = _report("distance", {"rho": rho_digest, "tau": tau_digest})
    q = report["quantities"]
    q["h_rho"] = density.dm_logical_entropy(rho)
    q["h_tau"] = density.dm_logical_entropy(tau)
    cross = quantum.quantum_cross_entropy(rho, tau)
    q["cross_entropy"] = cross
    d = quantum.quantum_hamming(rho, tau)
    q["hamming_distance"] = d
    hs = quantum.hilbert_schmidt_distance(rho, tau)
    q["hilbert_schmidt"] = hs
    ids = report["identities_checked"]
    ids["hamming_equals_hilbert_schmidt"] = _identity(d - hs, classical.FLOAT_TOL)
    ids["cross_entropy_symmetric"] = _identity(
        cross - quantum.quantum_cross_entropy(tau, rho), classical.FLOAT_TOL
    )
    ids["nonnegative"] = _identity(max(0.0, -d), classical.FLOAT_TOL)
    return report


# ---------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise :class:`InputSchemaError`, so :func:`main` reports them."""

    def error(self, message):
        raise InputSchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ditlab",
        description="Logical information theory: partition logic, logical entropy, "
        "and its quantum extension.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ent = sub.add_parser("entropy", help="partition entropy profiles")
    p_ent.add_argument("--pi", required=True, help="partition JSON file")
    p_ent.add_argument("--sigma", help="second partition JSON file")
    dist = p_ent.add_mutually_exclusive_group(required=True)
    dist.add_argument("--p", help="distribution JSON file")
    dist.add_argument("--joint", help="joint distribution JSON file (two-set mode)")
    p_ent.add_argument("--shannon", action="store_true", help="include Shannon quantities")

    p_tau = sub.add_parser("tautology", help="bounded partition-tautology search")
    formula = p_tau.add_mutually_exclusive_group(required=True)
    formula.add_argument("--expr", help="formula text")
    formula.add_argument("--formula", help="formula JSON file")
    p_tau.add_argument("--max-n", type=int, default=4, dest="max_n",
                       help="largest universe size searched (default 4)")

    p_mea = sub.add_parser("measure", help="Lüders measurement accounting")
    p_mea.add_argument("--state", help="state JSON file")
    p_mea.add_argument("--observable", help="observable JSON file")
    p_mea.add_argument("--demo", help=f"built-in example, one of {_DEMOS}")
    p_mea.add_argument("--emit-density", action="store_true", dest="emit_density",
                       help="include the post-measurement density matrix")

    p_dis = sub.add_parser("distance", help="density-matrix distances")
    p_dis.add_argument("--rho", required=True, help="density JSON file")
    p_dis.add_argument("--tau", required=True, help="density JSON file")

    for sp in (p_ent, p_tau, p_mea, p_dis):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        # Looked up when it runs, so a replaced ``cmd_*`` attribute is the one called.
        report = globals()[f"cmd_{args.subcommand}"](args)
        text = _render(report, args.format)
    except (InputSchemaError, FormulaSyntaxError) as exc:
        print(f"ditlab: input error: {exc}", file=stderr)
        return 2
    except BoundExceeded as exc:
        print(f"ditlab: work limit: {exc}", file=stderr)
        return 4
    except DitlabError as exc:
        print(f"ditlab: invariant violation: {exc}", file=stderr)
        return 3
    stdout.write(text)
    failed = [k for k, v in report.get("identities_checked", {}).items() if not v["pass"]]
    if failed:
        print(f"ditlab: identity check failed: {', '.join(failed)}", file=stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
