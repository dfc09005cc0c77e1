"""ditlab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload classical_exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each workload runs in one process with one caller in a closed loop: the
next call starts when the previous one returns.  The loop runs whole
cycles over the workload's op list, each in a fresh seeded order, until
the ops have taken ``--seconds`` of time, checks every result against the independent reference in
``reference.py`` between calls (outside the timed interval), and prints a
summary followed by one JSON line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the workload untraced, then traced, and
reports the per-layer metrics (see ``tracing.py``).

All times are put on the reference host's clock, because a shared
host's speed drifts by up to 3x within minutes.  About every 1 ms
of busy time, between ops and outside their timed intervals, the run
times a fixed probe (``speed_probe``: Fraction sums and a dict keyed by
tuples, the Python object work that dominates the workloads; it tracks
their slowdown more closely than a bare integer loop does).  Each op
sample is divided by the host's local slowdown: the median of the seven
probes around it over the probe's time on a quiet reference host
(``PROBE_REF_S``).

Timing metrics are then medians over the whole run.  An op's latency is
the median of its normalized samples over the run's cycles; the
percentiles are taken over those, one per op of the cycle, and
throughput is the cycle's op count over their sum.  The summary prints
the raw wall figures beside the reported ones.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with an error before measuring.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("classical_exact", "quantum_float", "tautology", "cli_reports")

#: BLAS/OpenMP threads, pinned before numpy loads; no more than nproc.
BLAS_THREADS = 1

#: Set-up runs in child processes per measuring run, besides the run's own;
#: setup_s is the median of all of them, each on the reference clock.
SETUP_CHILDREN = 4

#: The speed probe's time in seconds on the reference host: a quiet 2-core
#: x86-64 container running CPython 3.11.7.
PROBE_REF_S = 50e-6

#: Busy time between two runs of the speed probe.
PROBE_EVERY_S = 0.001

#: Probes timed right after a set-up; their median gives its slowdown.
SETUP_PROBES = 50

#: An op sample's local slowdown is the median of the probes from
#: PROBE_SPAN before it to PROBE_SPAN after it.
PROBE_SPAN = 3

#: A cycle never starts after this much wall time, so a run ends in time
#: even when the code under test is far slower than today.
WALL_LIMIT_S = 60.0

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one cycle over a trimmed op list, no set-up repeats (self-tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library():
    """Pin BLAS threads, then import ditlab from ``src/`` and the bench modules."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "ditlab" / "__init__.py").is_file():
        sys.exit(f"bench: no ditlab sources at {SRC / 'ditlab'}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ditlab

    if Path(ditlab.__file__).resolve().parent != SRC / "ditlab":
        sys.exit(f"bench: imported ditlab from {ditlab.__file__}, not from {SRC}")


def workload_rng(name, seed):
    import numpy as np

    return np.random.default_rng([seed, WORKLOADS.index(name)])


def setup(args, workdir):
    """Inputs, CLI files and one warm call of each op kind; returns the op list."""
    import workloads

    ops = workloads.WORKLOADS[args.workload](workload_rng(args.workload, args.seed), args.quick, workdir)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.call()
            except Exception:  # the timed call will fail again and be counted
                pass
    return ops


def speed_probe() -> float:
    """Seconds taken by a fixed piece of Python object work: Fraction sums and a keyed dict."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 9):
        s += Fraction(3, i)
    d = {}
    for i in range(150):
        d[(i, i % 7)] = [i, str(i)]
    sorted(d, key=lambda k: -k[0])
    return time.perf_counter() - t0


def probe_slowdown() -> float:
    """The host's slowdown now: the median of SETUP_PROBES probes over the reference time."""
    return statistics.median(speed_probe() for _ in range(SETUP_PROBES)) / PROBE_REF_S


class LoopResult:
    def __init__(self):
        self.cycles: list = []  # per cycle, the latency of each op
        self.marks: list = []  # per cycle, for each op the index of the last probe before it
        self.probes: list = []  # speed_probe times, taken between ops
        self.busy = 0.0
        self.failed = 0
        self.unexpected: list = []
        self.known: dict = {}

    @property
    def attempted(self):
        return sum(len(c) for c in self.cycles)

    def slowdown(self) -> float:
        """The host's speed over the run relative to the reference host (>1: slower)."""
        return statistics.median(self.probes) / PROBE_REF_S

    def latencies(self, raw=False) -> list:
        """Each op's median latency over the cycles, on the reference clock unless ``raw``."""
        import numpy as np

        lat = np.array(self.cycles)
        if not raw:
            p = np.array(self.probes)
            n = len(p)
            local = np.array([np.median(p[max(0, j - PROBE_SPAN):min(n, j + PROBE_SPAN + 1)])
                              for j in range(n)]) / PROBE_REF_S
            lat = lat / local[np.array(self.marks)]
        return [float(v) for v in np.median(lat, axis=0)]

    def throughput(self, raw=False) -> float:
        """Ops per second of one cycle with every op at its median latency."""
        lat = self.latencies(raw)
        return len(lat) / sum(lat)


def closed_loop(ops, seconds, quick, seed, tracer=None) -> LoopResult:
    """Whole cycles over ``ops`` until they have taken ``seconds``; checks every result.

    Each cycle runs the ops in a fresh seeded order, so that interference
    that recurs at a steady period cannot hit the same ops in every cycle.
    """
    res = LoopResult()
    order = list(range(len(ops)))
    shuffle = random.Random(seed).shuffle
    wall0 = time.monotonic()
    clock = time.perf_counter
    since_probe = PROBE_EVERY_S
    while True:
        latencies = [0.0] * len(ops)
        marks = [0] * len(ops)
        shuffle(order)
        for i in order:
            op = ops[i]
            if since_probe >= PROBE_EVERY_S:
                res.probes.append(speed_probe())
                since_probe = 0.0
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            try:
                out = op.call()
                err = None
            except Exception as exc:
                err = exc
            dt = clock() - t0
            latencies[i] = dt
            marks[i] = len(res.probes) - 1
            res.busy += dt
            since_probe += dt
            if err is None:
                try:
                    op.check(out)
                except Exception as exc:
                    err = exc
            if err is not None:
                res.failed += 1
                if op.known_failure:
                    res.known[f"{op.kind} {op.size}"] = op.known_failure
                else:
                    res.unexpected.append(f"{op.kind} {op.size}: {type(err).__name__}: {err}"[:300])
        res.cycles.append(latencies)  # indexed by op, not by position
        res.marks.append(marks)
        if quick or res.busy >= seconds or time.monotonic() - wall0 > WALL_LIMIT_S:
            return res


def child_setup(args):
    """(wall seconds, slowdown) of one set-up in a fresh process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    wall, slow = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(slow)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(loop: LoopResult, setups: list, raw=False) -> dict:
    """The metrics on the reference clock, or on the wall clock if ``raw``.

    ``setups`` holds a (wall seconds, slowdown) pair per set-up.
    """
    lat = loop.latencies(raw)
    return {
        "throughput_ops_s": loop.throughput(raw),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(wall / (1.0 if raw else slow) for wall, slow in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def header(args, ops):
    import numpy as np

    sizes = {}
    for op in ops:
        sizes.setdefault(op.kind, []).append(op.size)
    print(f"ditlab bench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  closed loop, 1 caller")
    print(f"machine  nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={BLAS_THREADS}")
    for kind, names in sizes.items():
        print(f"  op {kind}: {len(names)} per cycle ({', '.join(sorted(set(names)))})")


def report_loop(label, loop: LoopResult):
    rate = loop.failed / loop.attempted
    print(f"{label}: {loop.attempted} ops in {len(loop.cycles)} cycles of {len(loop.cycles[0])}, "
          f"{loop.busy:.2f} s busy; "
          f"error_rate {rate:.4g} fraction ({loop.failed} failed)")
    for what, why in loop.known.items():
        print(f"  known failure: {what}: {why}")
    for line in loop.unexpected[:10]:
        print(f"  FAILED {line}")


def run_workload(args) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops = setup(args, workdir)
        own_setup = (time.perf_counter() - T0, probe_slowdown())
        if args.setup_only:
            print(*own_setup)
            return {}
        header(args, ops)
        if args.trace:
            return traced_run(args, ops)
        loop = closed_loop(ops, args.seconds, args.quick, args.seed)
        report_loop("timed", loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = [own_setup] + [child_setup(args) for _ in range(0 if args.quick else SETUP_CHILDREN)]
    metrics = end_to_end(loop, setups)
    wall = end_to_end(loop, setups, raw=True)
    print(f"  latency samples: {len(loop.cycles[0])} ops, each the median of {len(loop.cycles)} cycles; "
          f"setup samples: {len(setups)}; host slowdown {loop.slowdown():.4f} "
          f"(median of {len(loop.probes)} probes over {PROBE_REF_S * 1e6:g} us)")
    for name, value in metrics.items():
        raw = "" if name == "peak_rss_mb" else f" (wall clock {wall[name]:.6g})"
        print(f"  {name:<18} {value:>14.6g} {END_TO_END_UNITS[name]:<6}{raw}")
    print(f"  {'error_rate':<18} {loop.failed / loop.attempted:>14.6g} fraction")
    return {
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def traced_run(args, ops) -> dict:
    import tracing

    untraced = closed_loop(ops, args.seconds, args.quick, args.seed)
    report_loop("untraced", untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(ops, args.seconds, args.quick, args.seed, tracer)
    finally:
        tracer.uninstall()
    report_loop("traced", traced)
    metrics = tracing.layer_metrics(tracer, ops, len(traced.cycles))
    metrics["trace.overhead"] = traced.throughput() / untraced.throughput()
    metrics.update(tracing.baseline_points(workload_rng(args.workload, args.seed + 1_000_003)))
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.npz")
    for name, unit in tracing.UNITS.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    return {
        "correct": not (untraced.unexpected or traced.unexpected),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in tracing.UNITS.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; prints one table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--quick"] if args.quick else []), capture_output=True,
                              text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    metric_names = list(results[WORKLOADS[0]]["metrics"])
    print()
    print(f"{'metric':<40}" + "".join(f"{w:>17}" for w in WORKLOADS) + "  unit")
    for m in metric_names + ["error_rate"]:
        cells = []
        for w in WORKLOADS:
            r = results[w]
            v = r["failed"] / r["attempted"] if m == "error_rate" else r["metrics"][m]["value"]
            cells.append(f"{v:>17.6g}")
        unit = "fraction" if m == "error_rate" else results[WORKLOADS[0]]["metrics"][m]["unit"]
        print(f"{m:<40}" + "".join(cells) + f"  {unit}")
    return results


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        results = run_all(args)
    else:
        import_library()
        results = run_workload(args)
        if args.setup_only:
            return 0
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
