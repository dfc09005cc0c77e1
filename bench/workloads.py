"""The four benchmark workloads: seeded inputs and the operations on them.

Each builder takes a numpy Generator, the quick flag and a scratch
directory, and returns a list of :class:`Op`.  An op is one closed-loop
call into ditlab plus the check of its result against the independent
reference in :mod:`reference`.  ditlab sees only the generated inputs.

Ops call ditlab through module attributes (``classical.entropy_profile``,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from typing import Callable, Optional

import numpy as np

import reference as R
from ditlab import classical, cli, density, logic, partitions, quantum


@dataclass
class Op:
    kind: str
    size: str
    call: Callable[[], object]
    check: Callable[[object], None]
    #: Why this op is expected to fail today; it still counts as failed.
    known_failure: Optional[str] = None
    #: Tautology evaluations the search plans (bench's own Bell numbers).
    planned: int = 0
    #: Bytes of the CLI input files the op reads.
    input_bytes: int = 0


# ------------------------------------------------------------- generators

def rational_weights(rng, n, lo=0, hi=12):
    while True:
        a = [int(v) for v in rng.integers(lo, hi, size=n)]
        s = sum(a)
        if s > 0:
            return [Fraction(x, s) for x in a]


def random_labels(rng, n, k):
    """Normalized labels of a random partition of ``n`` into at most ``k`` blocks."""
    return R.rgs_normalize(int(v) for v in rng.integers(0, k, size=n))


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def to_partition(labels):
    return partitions.make_partition(len(labels), R.blocks_of(labels))


def profile_dict(prof) -> dict:
    """EntropyProfile or QuantumProfile -> the six fields under classical names."""
    return dict(zip(R.PROFILE_FIELDS, (getattr(prof, f.name) for f in dataclasses.fields(prof))))


# -------------------------------------------------------- classical_exact

def _entropy_and_shannon(pi, sigma, p):
    return classical.entropy_profile(pi, sigma, p, "auto"), classical.shannon_profile(pi, sigma, p)


def _check_entropy_and_shannon(ref, result):
    logical, shannon = result
    want_logical, want_shannon = ref()
    R.compare_values(profile_dict(logical), want_logical, "entropy_profile")
    R.compare_values(profile_dict(shannon), want_shannon, "shannon_profile")


def _twoset(pi, sigma, joint):
    return classical.twoset_profile(pi, sigma, joint, "auto")


def _check_profile(ref, what, result):
    R.compare_values(profile_dict(result), ref(), what)


#: (X side, Y side) of the exact two-set ops; (xy)^2 stays under the
#: library's 10^6 oracle cut-off, and exact sides stay <= 12 because the
#: exact oracle makes (xy)^2 Fraction products.
TWOSET_SHAPES = ((2, 2), (2, 12), (3, 5), (4, 4), (5, 3), (6, 6),
                 (7, 9), (8, 8), (9, 7), (10, 10), (11, 12), (12, 12))


def classical_exact(rng, quick, workdir):
    """Every ordered partition pair on n = 1..5 plus a few dozen exact two-set profiles."""
    ops = []
    for n in range(1, 6):
        parts = [(lab, to_partition(lab)) for lab in R.enumerate_rgs(n)]
        for (la, pa), (lb, pb) in product(parts, parts):
            w = rational_weights(rng, n)
            ref = cache(lambda la=la, lb=lb, w=w: (
                R.table_profile(R.block_table(la, lb, w), exact=True),
                R.shannon_from_table(R.block_table(la, lb, w)),
            ))
            ops.append(Op("entropy_profile+shannon_profile", f"n={n}",
                          lambda pa=pa, pb=pb, p=classical.ProbDist(tuple(w)): _entropy_and_shannon(pa, pb, p),
                          lambda res, ref=ref: _check_entropy_and_shannon(ref, res)))
    for x, y in TWOSET_SHAPES * 2:
        lx, ly = R.random_rgs(rng, x), R.random_rgs(rng, y)
        flat = rational_weights(rng, x * y, lo=1, hi=9)
        matrix = [flat[i * y:(i + 1) * y] for i in range(x)]
        joint = classical.JointDist(tuple(tuple(r) for r in matrix))
        ref = cache(lambda lx=lx, ly=ly, m=matrix: R.table_profile(R.joint_table(lx, ly, m), exact=True))
        ops.append(Op("twoset_profile", f"{x}x{y}",
                      lambda a=to_partition(lx), b=to_partition(ly), j=joint: _twoset(a, b, j),
                      lambda res, ref=ref: _check_profile(ref, "twoset_profile", res)))
    if quick:
        ops = ops[::97] + ops[-4:]
    return ops


# ---------------------------------------------------------- quantum_float

def _check_scalar(ref, what, result):
    R.compare_values({what: result}, {what: ref()}, what)


def observable(rng, n, k):
    """Observable with ``k`` eigenvalue classes in a random basis, and its labels."""
    labels = tuple(int(v) for v in rng.permutation(np.arange(n) % k))
    u = random_unitary(rng, n)
    return quantum.Observable(tuple(float(v) for v in labels), u), u, labels


def _h_and_fundamental(F, psi):
    return quantum.h_observable_state(F, psi), quantum.quantum_fundamental_check(F, psi)


def _check_h_and_fundamental(ref, result):
    h, check = result
    want = ref()
    got = {
        "value": h.value, "via_qudit_pairs": h.via_qudit_pairs,
        "via_partition": h.via_partition, "via_measurement": h.via_measurement,
        "entropy_increase": check.entropy_increase, "decohered_sumsq": check.decohered_sumsq,
    }
    R.compare_values(got, dict.fromkeys(got, want), "h_observable_state")


def _check_luders(ref, result):
    R.check_matrix(result, ref(), "luders")


#: Dims of the density-pair and noncommuting ops; 31 and 32 straddle the
#: (nm)^2 <= 10^6 oracle cut-off of both.
DENSITY_DIMS = (8, 16, 31, 32, 64, 128)
NONCOMMUTING_DIMS = (4, 8, 16, 31, 32)
#: (dim, eigenvalue classes) of the measurement ops.
OBSERVABLE_DIMS = ((6, 3), (16, 6), (64, 35), (128, 24))


def quantum_float(rng, quick, workdir):
    """Density pairs, noncommuting profiles, measurements and Lüders maps in floats."""
    ops = []
    keep = (lambda n: n not in (31, 64, 128)) if quick else (lambda n: True)
    for n in filter(keep, DENSITY_DIMS):
        r, t = random_density(rng, n), random_density(rng, n)
        ops.append(Op("density_pair_profile", f"dim={n}",
                      lambda r=r, t=t: quantum.density_pair_profile(r, t),
                      lambda res, ref=cache(lambda r=r, t=t: R.density_pair_reference(r, t)):
                      _check_profile(ref, "density_pair_profile", res)))
    for n in filter(keep, DENSITY_DIMS):
        r, t = random_density(rng, n), random_density(rng, n)
        ops.append(Op("quantum_hamming", f"dim={n}",
                      lambda r=r, t=t: quantum.quantum_hamming(r, t),
                      lambda res, ref=cache(lambda r=r, t=t: R.hilbert_schmidt_reference(r, t)):
                      _check_scalar(ref, "quantum_hamming", res)))
    for n in filter(keep, NONCOMMUTING_DIMS):
        F, uf, lf = observable(rng, n, max(2, n // 4))
        G, ug, lg = observable(rng, n, max(2, n // 3))
        psi2 = random_state(rng, n * n)
        ref = cache(lambda uf=uf, lf=lf, ug=ug, lg=lg, v=psi2: R.noncommuting_reference(uf, lf, ug, lg, v))
        ops.append(Op("noncommuting_profile", f"dim={n}",
                      lambda F=F, G=G, v=psi2: quantum.noncommuting_profile(F, G, v, "auto"),
                      lambda res, ref=ref: _check_profile(ref, "noncommuting_profile", res)))
    for n, k in OBSERVABLE_DIMS:
        if not keep(n):
            continue
        F, u, labels = observable(rng, n, k)
        psi = random_state(rng, n)
        ref = cache(lambda u=u, labels=labels, psi=psi: R.observable_state_reference(u, labels, psi))
        ops.append(Op("h_observable_state+quantum_fundamental_check", f"dim={n},classes={k}",
                      lambda F=F, psi=psi: _h_and_fundamental(F, psi),
                      lambda res, ref=ref: _check_h_and_fundamental(ref, res)))
    # Lüders maps on dims 2-8 as in the acceptance suite; 12 per dim (half
    # pure, half mixed states) bring a cycle to >= 100 ops.
    for n in range(2, 9) if not quick else (2, 8):
        for pure in (True, False) * (1 if quick else 6):
            if pure:
                v = random_state(rng, n)
                rho = np.outer(v, v.conj())
            else:
                rho = random_density(rng, n)
            u = random_unitary(rng, n)
            labels = R.random_rgs(rng, n)
            projs = [u[:, b] @ u[:, b].conj().T for b in R.blocks_of(labels)]
            ref = cache(lambda rho=rho, u=u, labels=labels: R.luders_reference(rho, u, labels))
            ops.append(Op("luders", f"dim={n}",
                          lambda rho=rho, projs=projs: density.luders(rho, projs),
                          lambda res, ref=ref: _check_luders(ref, res)))
    return ops


# --------------------------------------------------------------- tautology

def V(name):
    return ("var", name)


def IMP(a, b):
    return ("->", a, b)


def AND(a, b):
    return ("&", a, b)


def OR(a, b):
    return ("|", a, b)


p, q, r = V("p"), V("q"), V("r")

#: (formula, max_n, expected status).  max_n keeps the planned evaluations
#: at or below ~5k (a 3-variable search at max_n 5 would plan 144k).
#: Every named formula costs more than any random one below, so the top
#: ranks of a cycle, p90 included, are the same searches for every seed.
NAMED_FORMULAS = (
    (OR(p, q), 4, "counterexample"),
    (IMP(AND(p, IMP(p, q)), q), 5, "tautology"),                          # modus ponens
    (IMP(p, p), 6, "tautology"),
    (IMP(AND(IMP(p, q), IMP(q, r)), IMP(p, r)), 4, "tautology"),         # hypothetical syllogism
    (IMP(IMP(IMP(p, q), p), p), 5, "counterexample"),                    # Peirce's law
    (OR(p, IMP(p, ("0",))), 5, "counterexample"),                         # excluded middle
    (IMP(AND(p, q), p), 4, "tautology"),
    (IMP(p, OR(p, q)), 4, "tautology"),
    (IMP(p, IMP(q, p)), 4, "tautology"),
    (IMP(OR(p, q), OR(q, p)), 4, "tautology"),
    (IMP(AND(IMP(p, r), IMP(q, r)), IMP(OR(p, q), r)), 3, "tautology"),
    (IMP(AND(p, OR(q, r)), OR(AND(p, q), AND(p, r))), 3, "counterexample"),  # distributivity
    (IMP(AND(OR(p, q), OR(p, r)), OR(p, AND(q, r))), 3, "counterexample"),   # distributivity
    (OR(IMP(p, q), IMP(q, p)), 4, "counterexample"),                          # linearity
)

#: Search bound by number of variables, so planned evaluations stay <= ~5k.
MAX_N_BY_VARS = {0: 6, 1: 6, 2: 5, 3: 4}

#: Seeded random formulas per cycle, drawn until each stratum of (position
#: of the first refuting assignment, number of connectives) holds its
#: quota.  Fixed quotas keep the cost profile of a cycle, and so p50, the
#: same from seed to seed.  All are refuted within 9 assignments, so they
#: exit early; the full searches are the named formulas.
RANDOM_QUOTAS = {
    ((1, 1), (0, 4)): 22, ((1, 1), (5, 7)): 22,
    ((2, 3), (0, 4)): 11, ((2, 3), (5, 7)): 11,
    ((4, 9), (0, 4)): 10, ((4, 9), (5, 7)): 10,
}


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return V("pqr"[int(rng.integers(0, 3))]) if rng.random() < 0.85 else (str(int(rng.integers(0, 2))),)
    op = ("|", "&", "->", "->")[int(rng.integers(0, 4))]
    return (op, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def connectives(f):
    return 0 if len(f) < 3 else 1 + connectives(f[1]) + connectives(f[2])


def random_formulas(rng, quotas):
    left = dict(quotas)
    out, seen = [], set()
    while any(left.values()):
        f = random_formula(rng, 3)
        text = R.formula_text(f)
        if text in seen:
            continue
        seen.add(text)
        index = R.refutation_index(f, 3)
        size = connectives(f)
        for (lo, hi), (small, big) in left:
            if index is not None and lo <= index <= hi and small <= size <= big and left[(lo, hi), (small, big)]:
                left[(lo, hi), (small, big)] -= 1
                out.append((f, MAX_N_BY_VARS[len(R.formula_vars(f))], "counterexample"))
                break
    return out


def verdict_dict(verdict) -> dict:
    witness = None
    if verdict.witness is not None:
        n, env = verdict.witness
        witness = (n, {name: [list(b) for b in part.blocks] for name, part in env.items()})
    status = "tautology" if verdict.is_tautology_up_to_bound else "counterexample"
    return {"status": status, "bound": verdict.bound, "witness": witness}


def _check_verdict(f, max_n, expect, seed, memo, result):
    got = verdict_dict(result)
    key = (got["status"], repr(got["witness"]))
    if memo.get(key):  # the same verdict for the same formula was checked already
        return
    R.check_tautology_verdict(got, f, max_n, expect, seed)
    memo[key] = True


def tautology(rng, quick, workdir):
    """check_tautology over named and seeded random formulas with <= 3 variables."""
    quotas = {k: 1 for k in list(RANDOM_QUOTAS)[::2]} if quick else RANDOM_QUOTAS
    formulas = list(NAMED_FORMULAS) + random_formulas(rng, quotas)
    ops = []
    for i, (f, max_n, expect) in enumerate(formulas):
        text = R.formula_text(f)
        ops.append(Op("check_tautology", f"vars={len(R.formula_vars(f))},max_n={max_n}",
                      lambda text=text, max_n=max_n: logic.check_tautology(logic.parse(text), max_n),
                      lambda res, f=f, max_n=max_n, expect=expect, seed=i, memo={}:
                      _check_verdict(f, max_n, expect, seed, memo, res),
                      planned=R.planned_evaluations(f, max_n)))
    return ops


# ------------------------------------------------------------- cli_reports

NAN_DEFECT = ("ROADMAP item 5: a NaN weight passes ProbDist, so `entropy` exits 0 and "
              "prints \"h_pi\":nan instead of exiting 3")


class InputFiles:
    """Writes numbered JSON documents into the scratch directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def write(self, doc, text=None):
        """Returns (path, sha256 hex digest, size in bytes)."""
        raw = (text if text is not None else json.dumps(doc)).encode("utf-8")
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:04d}.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        return path, hashlib.sha256(raw).hexdigest(), len(raw)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _weight_json(w):
    return str(w) if isinstance(w, Fraction) else w


def _complex_json(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(mat)]


def _entropy_expect(la, lb, w, shannon):
    q = R.block_table(la, lb, w)
    want = R.table_profile(q, exact=isinstance(w[0], Fraction))
    want["hamming_distance"] = want["h_pi_given_sigma"] + want["h_sigma_given_pi"]
    want["cross_entropy"] = want["h_joint"]
    if shannon:
        want.update({"H" + k[1:] if k != "mutual" else "H_mutual": v
                     for k, v in R.shannon_from_table(q).items()})
    return want


def _measure_expect(u, labels, psi):
    h = R.observable_state_reference(u, labels, psi)
    return dict.fromkeys(("h_F_psi", "h_via_partition", "h_via_measurement",
                          "entropy_increase", "decohered_sumsq"), h)


def _distance_expect(rho, tau):
    cross = 1.0 - float(np.real(np.sum(rho * tau.conj())))
    hs = R.hilbert_schmidt_reference(rho, tau)
    return {"h_rho": 1.0 - float(np.sum(np.abs(rho) ** 2)),
            "h_tau": 1.0 - float(np.sum(np.abs(tau) ** 2)),
            "cross_entropy": cross, "hamming_distance": hs, "hilbert_schmidt": hs}


def cli_reports(rng, quick, workdir):
    """In-process ``cli.main`` over every subcommand and mode, ~10% malformed inputs."""
    files = InputFiles(workdir)
    ops = []

    def add(kind, size, argv, inputs, expect, known_failure=None, planned=0):
        """``inputs`` maps report input names to (path, digest, size)."""
        expect.setdefault("format", "json")
        expect["digests"] = {k: v[1] for k, v in inputs.items()}
        ops.append(Op(kind, size, lambda argv=argv: _run_cli(argv),
                      lambda res, e=expect: R.check_cli(res, e),
                      known_failure=known_failure, planned=planned,
                      input_bytes=sum(v[2] for v in inputs.values())))

    def partition_file(labels):
        return files.write({"kind": "partition", "n": len(labels), "blocks": R.blocks_of(labels)})

    def entropy(n, k, exact, shannon=True, fmt="json"):
        la, lb = random_labels(rng, n, k), random_labels(rng, n, k)
        w = rational_weights(rng, n, lo=1)
        if not exact:
            w = [float(x) for x in w]
            w[-1] = 1.0 - sum(w[:-1])  # keep the float sum within the 1e-12 tolerance
        inputs = {"pi": partition_file(la), "sigma": partition_file(lb),
                  "p": files.write({"kind": "dist", "weights": [_weight_json(x) for x in w]})}
        argv = ["entropy", "--pi", inputs["pi"][0], "--sigma", inputs["sigma"][0],
                "--p", inputs["p"][0]] + (["--shannon"] if shannon else []) + ["--format", fmt]
        add("entropy", f"n={n},{'exact' if exact else 'float'}{',csv' if fmt == 'csv' else ''}",
            argv, inputs, {"code": 0, "format": fmt, "quantities": _entropy_expect(la, lb, w, shannon)})

    def die(fmt="json"):
        labels, w = (0, 1, 0, 1, 0, 1), [Fraction(1, 6)] * 6
        inputs = {"pi": partition_file(labels),
                  "p": files.write({"kind": "dist", "weights": [str(x) for x in w]})}
        h = R.table_profile(R.block_table(labels, (0,) * 6, w), exact=True)["h_pi"]
        add("entropy", "die n=6,exact" + (",csv" if fmt == "csv" else ""),
            ["entropy", "--pi", inputs["pi"][0], "--p", inputs["p"][0], "--format", fmt],
            inputs, {"code": 0, "format": fmt, "quantities": {"h_pi": h}})

    def twoset(x, y):
        lx, ly = R.random_rgs(rng, x), R.random_rgs(rng, y)
        flat = rational_weights(rng, x * y, lo=1, hi=9)
        matrix = [flat[i * y:(i + 1) * y] for i in range(x)]
        inputs = {"pi": partition_file(lx), "sigma": partition_file(ly),
                  "joint": files.write({"kind": "joint", "x": x, "y": y,
                                        "matrix": [[str(v) for v in row] for row in matrix]})}
        add("entropy", f"two-set {x}x{y},exact",
            ["entropy", "--pi", inputs["pi"][0], "--sigma", inputs["sigma"][0], "--joint", inputs["joint"][0]],
            inputs, {"code": 0, "quantities": R.table_profile(R.joint_table(lx, ly, matrix), exact=True)})

    def measure(n, k, fmt="json"):
        labels = tuple(int(v) for v in rng.permutation(np.arange(n) % k))
        u, psi = random_unitary(rng, n), random_state(rng, n)
        inputs = {"state": files.write({"kind": "state", "amplitudes": _complex_json(psi)[0]}),
                  "observable": files.write({"kind": "observable", "eigenvalues": list(labels),
                                             "eigenbasis": _complex_json(u)})}
        add("measure", f"dim={n},classes={k}",
            ["measure", "--state", inputs["state"][0], "--observable", inputs["observable"][0], "--format", fmt],
            inputs, {"code": 0, "format": fmt, "quantities": _measure_expect(u, labels, psi)})

    def demo(fmt="json"):
        add("measure", "demo" + (",csv" if fmt == "csv" else ""), ["measure", "--demo", "die-parity", "--format", fmt],
            {}, {"code": 0, "format": fmt,
                 "quantities": _measure_expect(np.eye(6), (1, 0, 1, 0, 1, 0), np.full(6, 6 ** -0.5))})

    def distance(n, fmt="json"):
        rho, tau = random_density(rng, n), random_density(rng, n)
        inputs = {"rho": files.write({"kind": "density", "matrix": _complex_json(rho)}),
                  "tau": files.write({"kind": "density", "matrix": _complex_json(tau)})}
        add("distance", f"dim={n}" + (",csv" if fmt == "csv" else ""),
            ["distance", "--rho", inputs["rho"][0], "--tau", inputs["tau"][0], "--format", fmt],
            inputs, {"code": 0, "format": fmt, "quantities": _distance_expect(rho, tau)})

    def tautology_file(f, max_n, status):
        inputs = {"formula": files.write({"kind": "formula", "text": R.formula_text(f)})}
        add("tautology", f"vars={len(R.formula_vars(f))},max_n={max_n}",
            ["tautology", "--formula", inputs["formula"][0], "--max-n", str(max_n)], inputs,
            {"code": 0, "quantities": {"planned_evaluations": Fraction(R.planned_evaluations(f, max_n))},
             "verdict": (f, max_n, status)}, planned=R.planned_evaluations(f, max_n))

    def malformed(kind, size, argv, code, known_failure=None):
        add(kind, size, argv, {}, {"code": code}, known_failure=known_failure)

    # Cheap reports repeat so that a cycle has >= 100 ops, ~10% of them malformed.
    for _ in range(1 if quick else 11):
        die()
        die("csv")
        demo()
        demo("csv")
        tautology_file(IMP(AND(p, IMP(p, q)), q), 4, "tautology")
        tautology_file(OR(p, q), 4, "counterexample")
        entropy(65, 8, exact=False)
        entropy(65, 8, exact=True)
    # One exact two-set report, so that the 12th and 13th slowest ops of a
    # cycle, between which p90 falls, are both dim-64 distance reports.
    twoset(8, 8)
    for _ in range(1 if quick else 2):
        entropy(64, 8, exact=False)
        entropy(64, 8, exact=True)
        distance(64)
    if not quick:
        entropy(64, 8, exact=False, fmt="csv")
        entropy(10_000, 20, exact=False)
        entropy(10_000, 20, exact=True)
        measure(64, 35)
        measure(128, 24)
        distance(64, "csv")
        distance(128)

    # Malformed documents, each with the exit code the CLI documents.
    p3 = partition_file((0, 1, 1))[0]
    good_p3 = files.write({"kind": "dist", "weights": ["1/3", "1/3", "1/3"]})[0]
    overlap = files.write({"kind": "partition", "n": 3, "blocks": [[0, 1], [1, 2]]})[0]
    short = files.write({"kind": "dist", "weights": ["1/2", "1/3", "0"]})[0]
    skew = files.write({"kind": "density", "matrix": [[[0.5, 0], [0.3, 0]], [[0, 0], [0.5, 0]]]})[0]
    big = files.write({"kind": "formula", "text": "(p & q) -> r"})[0]
    nan = files.write(None, text='{"kind": "dist", "weights": [NaN, 0.5, 0.5]}')[0]
    for _ in range(1 if quick else 2):
        malformed("entropy", "bad kind", ["entropy", "--pi", good_p3, "--p", good_p3], 2)
        malformed("entropy", "overlapping blocks", ["entropy", "--pi", overlap, "--p", good_p3], 3)
        malformed("entropy", "weights sum to 5/6", ["entropy", "--pi", p3, "--p", short], 3)
        malformed("distance", "non-Hermitian", ["distance", "--rho", skew, "--tau", skew], 3)
        malformed("tautology", "work limit", ["tautology", "--formula", big, "--max-n", "9"], 4)
        malformed("entropy", "non-finite weight", ["entropy", "--pi", p3, "--p", nan], 3,
                  known_failure=NAN_DEFECT)
    return ops


WORKLOADS = {
    "classical_exact": classical_exact,
    "quantum_float": quantum_float,
    "tautology": tautology,
    "cli_reports": cli_reports,
}
