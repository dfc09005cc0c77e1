"""Traced run: timing wrappers on ditlab's module attributes, and layer metrics.

The wrappers are installed only for the traced phase and restored after
it.  They sit where callers resolve names at call time (``logic.join``,
``classical.entropy_profile``, ``density.validate_density`` ...), so each
call into a layer records one span: name, start, end, parent span, op id
and one integer (pairs for ``ditset``, exact or float input for the
profile functions).  A function that calls itself (``logic.evaluate``) is
folded into its outermost span.  Spans stay in memory in flat arrays and
are written out when the run ends.

A span belongs to the layer that defines the function, so
``logic.join`` counts for ``partitions``.  Self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array

import numpy as np

import reference as R
import workloads as W
from ditlab import classical, cli, density, logic, quantum

#: (module, attributes) wrapped in the traced run.
TARGETS = (
    (logic, ("evaluate", "join", "meet", "implication")),
    (classical, ("ditset", "join", "entropy_profile", "shannon_profile",
                 "shannon_profile_from_transform", "twoset_profile", "logical_entropy",
                 "shannon_entropy", "hamming_distance", "cross_entropy_partitions")),
    (density, ("validate_density", "validate_projectors", "luders")),
    (quantum, ("h_observable_state", "quantum_fundamental_check", "measure",
               "noncommuting_profile", "commuting_profile", "density_pair_profile",
               "quantum_hamming", "quantum_cross_entropy", "hilbert_schmidt_distance")),
    (cli, ("main", "cmd_entropy", "cmd_tautology", "cmd_measure", "cmd_distance")),
)

#: Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "partitions.calls": "count",
    "classical.calls": "count",
    "quantum.calls": "count",
    "partitions.self_ms": "ms",
    "logic.self_ms": "ms",
    "classical.self_ms": "ms",
    "quantum.self_ms": "ms",
    "cli.self_ms": "ms",
    "partitions.lattice_us_per_op": "us",
    "partitions.ditset.pairs": "count",
    "logic.evaluations": "count",
    "logic.planned_evaluations": "count",
    "logic.work_ratio": "ratio",
    "logic.evals_per_s": "1/s",
    "classical.exact_us_per_profile": "us",
    "classical.float_us_per_profile": "us",
    "density.validate_ms": "ms",
    "density.validate_calls_per_op": "count",
    "density.validate_projectors_ms": "ms",
    "density.luders_us_per_call": "us",
    "quantum.measure_ms_per_call": "ms",
    "cli.self_share": "ratio",
    "cli.input_bytes": "B",
    "cli.library_calls_per_report": "count",
    "trace.overhead": "ratio",
    "classical.entropy_profile_n5_closed_us": "us",
    "classical.entropy_profile_n5_auto_us": "us",
    "classical.entropy_profile_n5_regions_us": "us",
    "classical.verify_over_closed": "ratio",
    "classical.entropy_cliff_ratio": "ratio",
    "classical.twoset_cliff_ratio": "ratio",
    "quantum.density_pair_cliff_ratio": "ratio",
    "quantum.noncommuting_cliff_ratio": "ratio",
    "quantum.h_observable_state_dim64_ms": "ms",
    "logic.tautology_us_per_eval": "us",
}

EXACT, FLOAT = 1, 2
PROFILE_FUNCTIONS = ("entropy_profile", "twoset_profile")
LATTICE_FUNCTIONS = ("join", "meet", "implication")
LIBRARY_LAYERS = ("classical", "density", "quantum")


def _input_mode(args, kwargs, result):
    """EXACT or FLOAT from the distribution argument of a profile function."""
    dist = args[2] if len(args) > 2 else kwargs.get("p", kwargs.get("joint"))
    first = dist.weights[0]
    if isinstance(first, tuple):
        first = first[0]
    return FLOAT if isinstance(first, float) else EXACT


def _pairs(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.installed: list = []

    def _wrap(self, fn, nid, measure):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tr.current
            if parent >= 0 and tr.name_id[parent] == nid:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(parent)
            tr.op.append(tr.op_id)
            tr.value.append(0)
            tr.end.append(0.0)
            tr.current = idx
            t0 = time.perf_counter()
            tr.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                tr.current = parent
            if measure is not None:
                tr.value[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, attrs in TARGETS:
            for attr in attrs:
                fn = getattr(module, attr)
                nid = len(self.names)
                self.names.append(f"{module.__name__.split('.')[-1]}.{attr}")
                self.layers.append(fn.__module__.split(".")[-1])
                if attr in PROFILE_FUNCTIONS:
                    measure = _input_mode
                elif attr == "ditset":
                    measure = _pairs
                else:
                    measure = None
                self.installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, nid, measure))

    def uninstall(self):
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.int64),
            "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
        }

    def dump(self, path):
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())


def layer_metrics(tracer: Tracer, ops: list, cycles: int) -> dict:
    """Per-layer metrics of one traced phase of ``cycles`` whole cycles of ``ops``."""
    a = tracer.arrays()
    nid, parent, value = a["name_id"], a["parent"], a["value"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered
    root = np.arange(len(dur))
    while True:
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            break
        root = up

    def spans(pred):
        """Mask of the spans whose (name, layer) satisfies ``pred``."""
        ids = [i for i, (n, lay) in enumerate(zip(tracer.names, tracer.layers)) if pred(n, lay)]
        return np.isin(nid, ids)

    def named(*names):
        return spans(lambda n, lay: n in names)

    def of_attr(*attrs):
        return spans(lambda n, lay: n.split(".", 1)[1] in attrs)

    def in_layer(*layers):
        return spans(lambda n, lay: lay in layers)

    def total(mask, values=dur):
        return float(np.sum(values[mask]))

    def mean(mask, values=dur):
        return float(np.mean(values[mask])) if np.any(mask) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    executed = cycles * len(ops)
    is_eval = named("logic.evaluate")
    evaluations = int(np.sum(is_eval))
    planned = cycles * sum(op.planned for op in ops)
    is_main = named("cli.main")
    reports = int(np.sum(is_main))
    profile = of_attr(*PROFILE_FUNCTIONS)
    validate = named("density.validate_density")
    library_under_cli = in_layer(*LIBRARY_LAYERS) & is_main[root]
    out = {f"{name}.calls": int(np.sum(in_layer(name))) for name in ("partitions", "classical", "quantum")}
    out.update({f"{name}.self_ms": total(in_layer(name), self_time) * 1e3
                for name in ("partitions", "logic", "classical", "quantum", "cli")})
    out.update({
        "partitions.lattice_us_per_op": mean(of_attr(*LATTICE_FUNCTIONS)) * 1e6,
        "partitions.ditset.pairs": int(np.sum(value[of_attr("ditset")])),
        "logic.evaluations": evaluations,
        "logic.planned_evaluations": planned,
        "logic.work_ratio": ratio(evaluations, planned),
        "logic.evals_per_s": ratio(evaluations, total(is_eval)),
        "classical.exact_us_per_profile": mean(profile & (value == EXACT)) * 1e6,
        "classical.float_us_per_profile": mean(profile & (value == FLOAT)) * 1e6,
        "density.validate_ms": total(validate) * 1e3,
        "density.validate_calls_per_op": ratio(int(np.sum(validate)), executed),
        "density.validate_projectors_ms": total(named("density.validate_projectors")) * 1e3,
        "density.luders_us_per_call": mean(named("density.luders")) * 1e6,
        "quantum.measure_ms_per_call": mean(named("quantum.measure")) * 1e3,
        "cli.self_share": ratio(total(in_layer("cli"), self_time), total(is_main)),
        "cli.input_bytes": ratio(cycles * sum(op.input_bytes for op in ops), reports),
        "cli.library_calls_per_report": ratio(int(np.sum(library_under_cli)), reports),
    })
    return out


# ---------------------------------------------------------- baseline points

def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def baseline_points(rng) -> dict:
    """Untraced timings of the fixed points the ROADMAP baselines cite, and the cliffs.

    Ratios put the size just under an oracle cut-off over the size just
    above it, so a ratio near 1 means the cliff is gone.
    """
    pairs = []
    for _ in range(100):
        pi, sigma = W.to_partition(R.random_rgs(rng, 5)), W.to_partition(R.random_rgs(rng, 5))
        pairs.append((pi, sigma, classical.ProbDist(tuple(W.rational_weights(rng, 5, lo=1)))))

    def profiles(method):
        return lambda: [classical.entropy_profile(a, b, p, method) for a, b, p in pairs]

    n5 = {m: _median_time(profiles(m), 5) / len(pairs) * 1e6 for m in ("closed", "auto", "regions")}

    def float_entropy(n):
        a, b = W.to_partition(W.random_labels(rng, n, 8)), W.to_partition(W.random_labels(rng, n, 8))
        w = rng.random(n)
        p = classical.ProbDist(tuple(float(x) for x in w / w.sum()))
        return _median_time(lambda: classical.entropy_profile(a, b, p, "auto"), 5)

    def float_twoset(n):
        a, b = W.to_partition(W.random_labels(rng, n, 6)), W.to_partition(W.random_labels(rng, n, 6))
        m = rng.random((n, n))
        joint = classical.JointDist(tuple(tuple(float(x) for x in row) for row in m / m.sum()))
        return _median_time(lambda: classical.twoset_profile(a, b, joint, "auto"), 3)

    def density_pair(n):
        r, t = W.random_density(rng, n), W.random_density(rng, n)
        return _median_time(lambda: quantum.density_pair_profile(r, t), 3)

    def noncommuting(n):
        F, G = W.observable(rng, n, max(2, n // 4))[0], W.observable(rng, n, max(2, n // 3))[0]
        v = W.random_state(rng, n * n)
        return _median_time(lambda: quantum.noncommuting_profile(F, G, v, "auto"), 3)

    F64 = W.observable(rng, 64, 35)[0]
    psi64 = W.random_state(rng, 64)
    mp = W.IMP(W.AND(W.p, W.IMP(W.p, W.q)), W.q)
    mp_text = R.formula_text(mp)
    taut_s = _median_time(lambda: logic.check_tautology(logic.parse(mp_text), 5), 3)
    return {
        "classical.entropy_profile_n5_closed_us": n5["closed"],
        "classical.entropy_profile_n5_auto_us": n5["auto"],
        "classical.entropy_profile_n5_regions_us": n5["regions"],
        "classical.verify_over_closed": n5["auto"] / n5["closed"],
        "classical.entropy_cliff_ratio": float_entropy(64) / float_entropy(65),
        "classical.twoset_cliff_ratio": float_twoset(31) / float_twoset(32),
        "quantum.density_pair_cliff_ratio": density_pair(31) / density_pair(32),
        "quantum.noncommuting_cliff_ratio": noncommuting(31) / noncommuting(32),
        "quantum.h_observable_state_dim64_ms":
            _median_time(lambda: quantum.h_observable_state(F64, psi64), 3) * 1e3,
        "logic.tautology_us_per_eval": taut_s / R.planned_evaluations(mp, 5) * 1e6,
    }
