"""Independent reference computations and the result checker.

Nothing here imports ditlab.  Every reference is computed from the plain
inputs the benchmark generated (label arrays, Fraction weights, numpy
matrices), so a defect in a ditlab code path cannot hide in its own
reference.  Each ``check_*`` function raises :class:`Mismatch` when a
result disagrees with the reference; the runner counts that as a failed
operation and carries on.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

#: Absolute tolerance for float quantities (the library's own route
#: tolerances are 1e-10 to 1e-12).
FLOAT_TOL = 1e-9

PROFILE_FIELDS = ("h_pi", "h_sigma", "h_joint", "h_pi_given_sigma", "h_sigma_given_pi", "mutual")


class Mismatch(Exception):
    """A result disagrees with the reference."""


# ------------------------------------------------------------ partitions

def rgs_normalize(labels) -> tuple:
    """Relabel blocks in order of first appearance (a restricted growth string)."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def enumerate_rgs(n: int):
    """Every restricted growth string of length ``n``, i.e. every partition."""
    out = []

    def rec(prefix, mx):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(mx + 2):
            rec(prefix + [v], max(mx, v))

    rec([0], 0)
    return out


def bell(n: int) -> int:
    """Bell number by the recurrence B(m+1) = sum_k C(m, k) B(k)."""
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


def blocks_of(labels) -> list:
    """Label array -> list of blocks (element lists) in first-appearance order."""
    out: dict = {}
    for x, lab in enumerate(labels):
        out.setdefault(lab, []).append(x)
    return list(out.values())


def labels_of(blocks, n: int) -> tuple:
    """Block lists -> normalized label array."""
    lab = [-1] * n
    for i, block in enumerate(blocks):
        for x in block:
            lab[x] = i
    if -1 in lab:
        raise Mismatch(f"blocks {blocks} do not cover a universe of size {n}")
    return rgs_normalize(lab)


def lat_join(a, b) -> tuple:
    """Blocks are the nonempty intersections: label by the pair of labels."""
    return rgs_normalize(zip(a, b))


def lat_meet(a, b) -> tuple:
    """Connected components of 'same block in a or in b'."""
    n = len(a)
    comp = list(range(n))

    def root(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for lab in (a, b):
        first: dict = {}
        for x, v in enumerate(lab):
            if v in first:
                ra, rb = root(first[v]), root(x)
                if ra != rb:
                    comp[max(ra, rb)] = min(ra, rb)
            else:
                first[v] = x
    return rgs_normalize(root(x) for x in range(n))


def lat_implication(s, p) -> tuple:
    """Each block of ``p`` inside one block of ``s`` becomes singletons."""
    n = len(p)
    inside = {}
    for x in range(n):
        inside.setdefault(p[x], set()).add(s[x])
    return rgs_normalize(p[x] if len(inside[p[x]]) > 1 else ("single", x) for x in range(n))


# -------------------------------------------------------------- formulas
# A formula is a tuple: ("var", name), ("0",), ("1",) or (op, lhs, rhs)
# with op in "|", "&", "->".

def formula_text(f) -> str:
    if f[0] == "var":
        return f[1]
    if f[0] in ("0", "1"):
        return f[0]
    return f"({formula_text(f[1])} {f[0]} {formula_text(f[2])})"


def formula_vars(f) -> list:
    if f[0] == "var":
        return [f[1]]
    if f[0] in ("0", "1"):
        return []
    out = formula_vars(f[1])
    return out + [v for v in formula_vars(f[2]) if v not in out]


def lat_evaluate(f, env: dict, n: int) -> tuple:
    tag = f[0]
    if tag == "var":
        return env[f[1]]
    if tag == "0":
        return (0,) * n
    if tag == "1":
        return tuple(range(n))
    lhs = lat_evaluate(f[1], env, n)
    rhs = lat_evaluate(f[2], env, n)
    if tag == "|":
        return lat_join(lhs, rhs)
    if tag == "&":
        return lat_meet(lhs, rhs)
    return lat_implication(lhs, rhs)


def is_top(labels) -> bool:
    return len(set(labels)) == len(labels)


def planned_evaluations(f, max_n: int) -> int:
    k = len(formula_vars(f))
    return sum(bell(n) ** k for n in range(2, max_n + 1))


def refutation_index(f, max_n: int):
    """1-based position of the first refuting assignment, or ``None``.

    Assignments are searched as the library does: universe sizes 2..max_n,
    partitions in restricted-growth order, variables in order of first
    appearance.
    """
    names = formula_vars(f)
    index = 0
    for n in range(2, max_n + 1):
        for combo in itertools.product(enumerate_rgs(n), repeat=len(names)):
            index += 1
            if not is_top(lat_evaluate(f, dict(zip(names, combo)), n)):
                return index
    return None


def random_rgs(rng, n: int) -> tuple:
    """A random restricted growth string of length ``n`` from a numpy Generator."""
    labels, mx = [0], 0
    for _ in range(n - 1):
        v = int(rng.integers(0, mx + 2))
        labels.append(v)
        mx = max(mx, v)
    return tuple(labels)


def spot_check_tautology(f, max_n: int, seed: int, samples: int = 24) -> None:
    """Evaluate ``f`` on seeded random assignments; every value must be top."""
    rng = np.random.default_rng(seed)
    names = formula_vars(f)
    for _ in range(samples):
        n = int(rng.integers(2, max_n + 1))
        env = {v: random_rgs(rng, n) for v in names}
        if not is_top(lat_evaluate(f, env, n)):
            raise Mismatch(f"claimed tautology fails at n={n} under {env}")


def check_tautology_verdict(verdict: dict, f, max_n: int, expect, seed: int) -> None:
    """``verdict`` is {"status", "bound", "witness": None or (n, {var: blocks})}.

    ``expect`` is "tautology", "counterexample" or None (unknown: the
    verdict is then checked on its own terms only).
    """
    if verdict["bound"] != max_n:
        raise Mismatch(f"bound {verdict['bound']} != max_n {max_n}")
    status = verdict["status"]
    if expect is not None and status != expect:
        raise Mismatch(f"status {status!r}, expected {expect!r}")
    if status == "counterexample":
        check_witness(verdict["witness"], f, max_n)
    elif status == "tautology":
        if verdict["witness"] is not None:
            raise Mismatch("a tautology verdict carries a witness")
        spot_check_tautology(f, max_n, seed)
    else:
        raise Mismatch(f"unknown status {status!r}")


def check_witness(witness, f, max_n: int) -> None:
    if witness is None:
        raise Mismatch("counterexample without a witness")
    n, assignment = witness
    if not 2 <= n <= max_n:
        raise Mismatch(f"witness universe {n} outside 2..{max_n}")
    if sorted(assignment) != sorted(formula_vars(f)):
        raise Mismatch(f"witness binds {sorted(assignment)}, formula has {formula_vars(f)}")
    env = {v: labels_of(blocks, n) for v, blocks in assignment.items()}
    if is_top(lat_evaluate(f, env, n)):
        raise Mismatch(f"witness {assignment} evaluates to top")


# ------------------------------------------------------ classical profiles

def table_profile(q, exact: bool) -> dict:
    """Six logical entropies from a block-pair probability table ``q[i][j]``."""
    if exact:
        rows = [sum(r, Fraction(0)) for r in q]
        cols = [sum((r[j] for r in q), Fraction(0)) for j in range(len(q[0]))]
        cells = [v for r in q for v in r]
        h_pi = 1 - sum(v * v for v in rows)
        h_sigma = 1 - sum(v * v for v in cols)
        h_joint = 1 - sum(v * v for v in cells)
    else:
        q = np.asarray(q, dtype=float)
        h_pi = 1.0 - float(np.sum(q.sum(axis=1) ** 2))
        h_sigma = 1.0 - float(np.sum(q.sum(axis=0) ** 2))
        h_joint = 1.0 - float(np.sum(q ** 2))
    return {
        "h_pi": h_pi,
        "h_sigma": h_sigma,
        "h_joint": h_joint,
        "h_pi_given_sigma": h_joint - h_sigma,
        "h_sigma_given_pi": h_joint - h_pi,
        "mutual": h_pi + h_sigma - h_joint,
    }


def shannon_from_table(q) -> dict:
    def bits(v):
        v = float(v)
        return -v * math.log2(v) if v > 0 else 0.0

    rows = [sum(r) for r in q]
    cols = [sum(r[j] for r in q) for j in range(len(q[0]))]
    h_pi = sum(bits(v) for v in rows)
    h_sigma = sum(bits(v) for v in cols)
    h_joint = sum(bits(v) for r in q for v in r)
    return {
        "h_pi": h_pi,
        "h_sigma": h_sigma,
        "h_joint": h_joint,
        "h_pi_given_sigma": h_joint - h_sigma,
        "h_sigma_given_pi": h_joint - h_pi,
        "mutual": h_pi + h_sigma - h_joint,
    }


def block_table(la, lb, weights) -> list:
    """One-universe table: q[i][j] = weight of elements in block i of a, j of b."""
    ka, kb = max(la) + 1, max(lb) + 1
    zero = Fraction(0) if isinstance(weights[0], Fraction) else 0.0
    q = [[zero] * kb for _ in range(ka)]
    for x, w in enumerate(weights):
        q[la[x]][lb[x]] += w
    return q


def joint_table(lx, ly, matrix) -> list:
    """Two-universe table from a joint matrix over X x Y."""
    q = [[Fraction(0)] * (max(ly) + 1) for _ in range(max(lx) + 1)]
    for x, row in enumerate(matrix):
        for y, w in enumerate(row):
            q[lx[x]][ly[y]] += w
    return q


def compare_values(got: dict, want: dict, what: str) -> None:
    """Fraction references must match exactly, float ones within FLOAT_TOL."""
    for name, w in want.items():
        if name not in got:
            raise Mismatch(f"{what}: missing {name}")
        g = got[name]
        if isinstance(g, bool) or not isinstance(g, (int, float, Fraction)):
            raise Mismatch(f"{what}: {name} = {g!r} is not a number")
        if isinstance(w, Fraction):
            if isinstance(g, float) or g != w:
                raise Mismatch(f"{what}: {name} = {g!r}, expected exactly {w}")
        elif not math.isfinite(float(g)) or abs(float(g) - float(w)) > FLOAT_TOL:
            raise Mismatch(f"{what}: {name} = {g!r}, expected {float(w)!r}")


# -------------------------------------------------------- quantum references

def density_pair_reference(rho, tau) -> dict:
    """Six quantities of an independent density pair from the two spectra."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    mu = np.clip(np.linalg.eigvalsh(tau), 0.0, None)
    # Region sums over index pairs: the diagonal i == i2 carries lam_i^2.
    same_f = float(np.sum(lam ** 2)) * float(np.sum(mu)) ** 2
    same_g = float(np.sum(mu ** 2)) * float(np.sum(lam)) ** 2
    same_both = float(np.sum(lam ** 2)) * float(np.sum(mu ** 2))
    total = (float(np.sum(lam)) * float(np.sum(mu))) ** 2
    return {
        "h_pi": total - same_f,
        "h_sigma": total - same_g,
        "h_joint": total - same_both,
        "h_pi_given_sigma": same_g - same_both,
        "h_sigma_given_pi": same_f - same_both,
        "mutual": total - same_f - same_g + same_both,
    }


def hilbert_schmidt_reference(rho, tau) -> float:
    """Entrywise ``sum |rho - tau|^2``."""
    return float(np.sum(np.abs(rho - tau) ** 2))


def noncommuting_reference(uf, lf, ug, lg, psi2) -> dict:
    """Profile of two observables on a doubled state, via an einsum table."""
    n = uf.shape[0]
    amp = np.einsum("ai,ab,bj->ij", uf.conj(), psi2.reshape(n, n), ug.conj())
    p = np.abs(amp) ** 2
    p = p / p.sum()
    q = np.zeros((max(lf) + 1, max(lg) + 1))
    np.add.at(q, (np.asarray(lf)[:, None], np.asarray(lg)[None, :]), p)
    return table_profile(q, exact=False)


def observable_state_reference(u, labels, psi) -> float:
    """``1 - sum_class (sum_{j in class} |<u_j|psi>|^2)^2``."""
    p = np.abs(u.conj().T @ psi) ** 2
    p = p / p.sum()
    classes = np.zeros(max(labels) + 1)
    np.add.at(classes, np.asarray(labels), p)
    return 1.0 - float(np.sum(classes ** 2))


def luders_reference(rho, u, labels) -> np.ndarray:
    """Lüders mixture as a block mask in the projectors' eigenbasis."""
    lab = np.asarray(labels)
    mask = lab[:, None] == lab[None, :]
    inner = u.conj().T @ rho @ u
    return u @ (inner * mask) @ u.conj().T


def check_matrix(got, want, what: str) -> None:
    got = np.asarray(got)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape}, expected {want.shape}")
    gap = float(np.max(np.abs(got - want)))
    if not gap <= FLOAT_TOL:
        raise Mismatch(f"{what}: max entry gap {gap:.3e}")


# --------------------------------------------------------------------- CLI

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse JSON rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_report_value(v):
    """Report scalar -> Fraction for "a/b" strings and ints, float otherwise."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    return v


def parse_csv_report(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != "name,value":
        raise Mismatch("CSV report lacks its header")
    rows = {}
    for line in lines[1:]:
        name, sep, value = line.partition(",")
        if not sep:
            raise Mismatch(f"CSV row {line!r} has no value")
        rows[name] = value
    quantities = {}
    for name, value in rows.items():
        if name.startswith("quantities."):
            try:
                quantities[name[len("quantities."):]] = (
                    Fraction(value) if "/" in value or value.lstrip("-").isdigit() else float(value)
                )
            except ValueError as exc:
                raise Mismatch(f"CSV value {value!r} for {name}") from exc
    checks = {k[len("identities_checked."):-len(".pass")]: v == "true"
              for k, v in rows.items() if k.startswith("identities_checked.") and k.endswith(".pass")}
    return {"quantities": quantities, "passes": checks}


def check_cli(result, expect: dict) -> None:
    """``result`` is (exit code, stdout, stderr); ``expect`` describes the run.

    ``expect`` keys: ``code`` (exit code), ``format`` ("json" or "csv"),
    ``quantities`` (name -> reference value), ``digests`` (input name ->
    sha256 of the bytes written), and optional ``verdict`` ((formula,
    max_n, expected status)) for tautology reports.
    """
    code, out, err = result
    if code != expect["code"]:
        raise Mismatch(f"exit code {code}, expected {expect['code']}: {err.strip()[:200]}")
    if expect["code"] != 0:
        if out:
            raise Mismatch(f"exit {code} with output on stdout")
        if not err:
            raise Mismatch(f"exit {code} without a message on stderr")
        return
    if expect["format"] == "csv":
        parsed = parse_csv_report(out)
        quantities, passes = parsed["quantities"], parsed["passes"]
    else:
        if not out.endswith("\n") or out.count("\n") != 1:
            raise Mismatch("JSON report is not exactly one line")
        try:
            doc = strict_json(out)
        except ValueError as exc:
            raise Mismatch(f"stdout is not strict JSON: {exc}") from exc
        for name, digest in expect["digests"].items():
            got = doc["inputs"].get(name, {}).get("sha256")
            if got != digest:
                raise Mismatch(f"input digest of {name} is {got}")
        quantities = {k: parse_report_value(v) for k, v in doc["quantities"].items()}
        passes = {k: v["pass"] for k, v in doc["identities_checked"].items()}
        if "verdict" in expect:
            f, max_n, status = expect["verdict"]
            witness = quantities["witness"]
            if witness is not None:
                witness = (witness["n"], witness["assignment"])
            verdict = {"status": quantities["status"].replace("_up_to_bound", ""),
                       "bound": int(quantities["bound"]), "witness": witness}
            check_tautology_verdict(verdict, f, max_n, status, seed=max_n)
    if not all(passes.values()):
        raise Mismatch(f"identities not all passed: {passes}")
    compare_values(quantities, expect["quantities"], "CLI report")
