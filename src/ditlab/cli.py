"""Command line interface.

Four subcommands wrap the library: ``entropy`` (partition profiles),
``tautology`` (bounded search over partition assignments), ``measure``
(Lüders measurement accounting) and ``distance`` (density-matrix
distances).  Inputs are small JSON documents tagged with a ``kind`` field;
reports echo a hash of each input, list named quantities, and re-verify
the defining identities with explicit residuals.

Each command hands its quantities and its identity rows
``(name, residual, tol, covers)`` to :func:`_report`, which builds every report.

Each document is loaded in one pass; a distribution's weights and a joint
distribution's cells are each read as one list (see :func:`_load_dist`).

Output is byte-for-byte deterministic: keys are emitted in fixed order,
floats with 17 significant digits, exact rationals as ``"a/b"`` strings.
CSV lists the quantities, the identities and any matrices, one
``name,value`` row per scalar.
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
import re
import sys
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import classical, density, logic, quantum
from .classical import JointDist, ProbDist
from .errors import BoundExceeded, DitlabError, FormulaSyntaxError, InternalInconsistency
from .partitions import make_partition
from .quantum import Observable

#: Environment variable overriding the tautology search work limit.
WORK_LIMIT_ENV = "DITLAB_WORK_LIMIT"


class InputSchemaError(Exception):
    """The input document is malformed (wrong kind, missing field, bad type)."""


# ------------------------------------------------------------------- loading

def _load_document(path: str, expected_kind: str, *required: str):
    """The JSON object at ``path``, of kind ``expected_kind``, with the ``required`` fields."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputSchemaError(f"cannot read {path}: {exc}") from exc
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
    """JSON number or rational string, read by ``Fraction`` -> Fraction (exact) or float.

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
        try:
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


def _integer(doc: dict, field: str, path: str) -> int:
    """The integer field ``field`` of ``doc``; a bool or any other type is malformed."""
    value = doc[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputSchemaError(f"{path}: field {field!r} must be an integer")
    return value


def _load_partition(path: str):
    doc, digest = _load_document(path, "partition", "n", "blocks")
    n, blocks = _integer(doc, "n", path), doc["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise InputSchemaError(f"{path}: field 'blocks' must be a list of lists")
    return make_partition(n, blocks), digest


#: A list of ``"a/b"`` weights, joined by commas: ASCII digits, ``/``, ASCII digits each.
_RATIOS = re.compile(r"(?:[0-9]+/[0-9]+,)*[0-9]+/[0-9]+")


def _ratios(weights: list):
    """The numerators and denominators of ``weights`` as two lists of ints, if every weight is
    a string of ASCII digits, ``/``, ASCII digits with a nonzero denominator; else ``None``.

    Checked and split in C over the joined text; a weight with a comma is
    told apart by the count of commas.  A number with more digits than
    ``int`` converts also gives ``None``, so :func:`_parse_number` reports it.
    """
    try:
        text = ",".join(weights)
    except TypeError:  # a weight that is not a string
        return None
    if text.count(",") != len(weights) - 1 or not _RATIOS.fullmatch(text):
        return None
    try:
        ints = list(map(int, text.replace("/", ",").split(",")))
    except ValueError:
        return None
    numerators, denominators = ints[::2], ints[1::2]
    return None if 0 in denominators else (numerators, denominators)


def _load_dist(path: str):
    """The distribution at ``path``, its weights read one of three ways, each with the same result.

    A list of JSON floats goes to ``ProbDist`` as it is.  A list of
    ``"a/b"`` strings is split into ints by :func:`_ratios` and built by
    :meth:`ProbDist._from_ratios`, which forms no Fraction until ``weights``
    is read.  Any other list goes weight by weight through :func:`_parse_number`.
    """
    doc, digest = _load_document(path, "dist", "weights")
    weights = doc["weights"]
    if not isinstance(weights, list):
        raise InputSchemaError(f"{path}: field 'weights' must be a list")
    if all(map(isinstance, weights, repeat(float))):
        return ProbDist(tuple(weights)), digest
    ratios = _ratios(weights)
    if ratios is not None:
        return ProbDist._from_ratios(*ratios), digest
    return ProbDist(tuple(_parse_number(w, path) for w in weights)), digest


def _load_joint(path: str):
    """The joint distribution at ``path``, its cells read as one list the way dist weights are."""
    doc, digest = _load_document(path, "joint", "x", "y", "matrix")
    x, y, matrix = _integer(doc, "x", path), _integer(doc, "y", path), doc["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputSchemaError(f"{path}: field 'matrix' must be a list of rows")
    if len(matrix) != x or any(len(r) != y for r in matrix):
        raise InputSchemaError(f"{path}: matrix shape does not match x={x}, y={y}")
    cells = [w for r in matrix for w in r]
    ratios = _ratios(cells)
    cells = list(map(Fraction, *ratios)) if ratios else [_parse_number(w, path) for w in cells]
    return JointDist(tuple(cells[i * y:(i + 1) * y] for i in range(x))), digest


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
    for section in ("quantities", "identities_checked", "matrices"):
        _flatten(section, report.get(section, {}), rows)
    return "name,value\n" + "".join(f"{name},{value}\n" for name, value in rows)


def _matrix_json(mat: np.ndarray) -> list:
    m = np.asarray(mat, dtype=np.complex128)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def _report(command: str, inputs: dict, quantities: dict, identities, **sections) -> dict:
    """The report of ``command``: each input's sha256, the printed ``quantities``, the
    ``identities`` judged, then each further section that is not ``None``, in the order given.

    Each identity is a row ``(name, residual, tol, covers)``.  It passes when
    ``abs(float(residual)) <= tol``, and ``covers`` names the printed
    quantities it is a second route to; a name the report does not print
    raises :class:`InternalInconsistency`.
    """
    checked = {}
    for name, residual, tol, covers in identities:
        unprinted = [c for c in covers if c not in quantities]
        if unprinted:
            raise InternalInconsistency(f"identity {name} covers {', '.join(unprinted)}, "
                                        "which the report does not print")
        res = abs(float(residual))
        checked[name] = {"pass": res <= tol, "residual": res}
    return {"command": command, "inputs": {k: {"sha256": v} for k, v in inputs.items()},
            "quantities": quantities, "identities_checked": checked,
            **{k: v for k, v in sections.items() if v is not None}}


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
    tol = classical.FLOAT_TOL
    if args.joint is None and sigma is None:
        h = classical.logical_entropy(pi, p)
        shannon = {"H_pi": classical.shannon_entropy(pi, p)} if args.shannon else {}
        # Each range residual puts 0.0 last: max keeps a leading NaN, so a NaN entropy fails its check.
        return _report("entropy", inputs, {"h_pi": h, **shannon},
                       [("unit_interval", max(float(-h), float(h - 1), 0.0), tol, ("h_pi",))])
    if args.joint is not None:
        prof, distances = classical.twoset_profile(pi, sigma, joint), {}
    else:
        # One carrier, so the three profiles share its block sums.
        blocks = classical._blocks(pi, sigma, p, "entropy profile")
        prof = classical.entropy_profile(pi, sigma, blocks)
        distances = {"hamming_distance": prof.h_pi_given_sigma + prof.h_sigma_given_pi,
                     "cross_entropy": prof.h_joint}
    identities = [
        ("venn_chain", prof.h_joint - (prof.h_pi_given_sigma + prof.mutual + prof.h_sigma_given_pi),
         tol, ("h_joint", "h_pi_given_sigma", "mutual", "h_sigma_given_pi")),
        ("venn_mutual", prof.mutual - (prof.h_pi + prof.h_sigma - prof.h_joint),
         tol, ("mutual", "h_pi", "h_sigma", "h_joint")),
    ]
    shannon = {}
    if args.shannon:
        sprof = classical.shannon_profile(pi, sigma, blocks)
        shannon = {"H_" + k.removeprefix("h_"): v for k, v in vars(sprof).items()}
        tprof = classical.shannon_profile_from_transform(pi, sigma, blocks)
        identities.append(("shannon_transform", tprof.h_pi_given_sigma - sprof.h_pi_given_sigma,
                           tol, ("H_pi_given_sigma",)))
    return _report("entropy", inputs, {**vars(prof), **distances, **shannon}, identities)


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
    quantities = {"formula": logic.to_text(f), "status": verdict.status.value, "bound": verdict.bound,
                  "planned_evaluations": logic.planned_evaluations(f, args.max_n), "witness": None}
    if verdict.witness is None:
        return _report("tautology", {"formula": digest}, quantities, [])
    n, env = verdict.witness
    assignment = {name: [list(b) for b in part.blocks] for name, part in sorted(env.items())}
    value = logic.evaluate(f, env, n)
    witness = {"witness": {"n": n, "assignment": assignment},
               "witness_value": [list(b) for b in value.blocks]}
    nontop = 0.0 if value.n_blocks < n else 1.0
    return _report("tautology", {"formula": digest}, {**quantities, **witness},
                   [("witness_reevaluates_nontop", nontop, 0.0, ("witness", "witness_value"))])


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
    tol = quantum.ROUTE_TOL
    return _report(
        "measure", inputs,
        {"h_F_psi": h.value, "h_via_partition": h.via_partition, "h_via_measurement": h.via_measurement,
         "entropy_increase": check.entropy_increase, "decohered_sumsq": check.decohered_sumsq},
        [("route_partition_agrees", h.value - h.via_partition, tol, ("h_F_psi", "h_via_partition")),
         ("route_measurement_agrees", h.value - h.via_measurement, tol, ("h_F_psi", "h_via_measurement")),
         ("fundamental_theorem", check.residual, tol, ("entropy_increase", "decohered_sumsq"))],
        matrices={"rho_prime": _matrix_json(quantum.measure(obs, state))} if args.emit_density else None,
    )


def cmd_distance(args) -> dict:
    rho, rho_digest = _load_density(args.rho)
    tau, tau_digest = _load_density(args.tau)
    rho, tau = density._pair(rho, tau)
    h_rho, h_tau = density.dm_logical_entropy(rho), density.dm_logical_entropy(tau)
    cross = quantum.quantum_cross_entropy(rho, tau)
    d = quantum.quantum_hamming(rho, tau)
    hs = quantum.hilbert_schmidt_distance(rho, tau)
    tol = classical.FLOAT_TOL
    return _report(
        "distance", {"rho": rho_digest, "tau": tau_digest},
        {"h_rho": h_rho, "h_tau": h_tau, "cross_entropy": cross, "hamming_distance": d, "hilbert_schmidt": hs},
        [("hamming_equals_hilbert_schmidt", d - hs, tol, ("hamming_distance", "hilbert_schmidt")),
         ("cross_entropy_symmetric", cross - quantum.quantum_cross_entropy(tau, rho), tol, ("cross_entropy",)),
         ("nonnegative", max(-d, 0.0), tol, ("hamming_distance",))],
    )


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
