"""Benchmark for hedonic_dynamics: three workloads, end-to-end and per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload run-enum --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json (tracing off); with ``--trace 1``
the workload is measured untraced first and then once more with every
public library function wrapped (see tracing.py), and the metrics are the
per-layer ones.  ``--record FILE`` also stores the full result, with the
machine, the Python version and the git revision, under the workload's name
in FILE.  Stdlib only, one process, one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".bench_work"
EXPECTED = BENCH_DIR / "expected.json"
DEFAULT_SEED = 1
#: set-up runs at least this often and until this much time has passed
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
#: probe kernels per second that ``setup_s`` is expressed at: about the
#: probe speed of the 2-core Xeon VM the benchmark was tuned on, at its
#: faster level
REF_SPEED = 20_000.0

STEP_KINDS = ("ahg", "hdg", "fhg")
TIME_KINDS = ("exists", "reach", "claims")


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hedonic_dynamics  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import hedonic_dynamics from {ROOT / 'src'}: {exc}")


class SpeedProbe:
    """Samples how fast the machine runs while an operation executes.

    On a virtual machine whose cores are shared with other tenants (the
    2-core Xeon VM this benchmark was tuned on is one) the same operation
    takes anywhere from 1x to 2x its best time, switching within seconds,
    and plain wall times of identical runs spread by a third.  So every
    ``INTERVAL`` seconds of wall time a timer signal runs a small fixed
    kernel (with the cyclic collector off) and records how long it took.
    The samples are spread evenly over the operation's time, so the mean of
    their speeds (1 / duration) is the machine's mean speed during it, and

        work = (wall time - probe time) * mean speed / 1000

    is the operation's cost in thousands of probe kernels: what it would
    take at a constant speed.  The probes cost 1 to 2 % of the wall time.
    The kernel runs in the operation's caches, so an operation that evicts
    them slows the probe too and hides part of its own cost; the kernel is
    long enough that refilling them is a small part of it (README.md).
    """

    INTERVAL = 0.005

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self._previous = None

    @staticmethod
    def _kernel():
        total = 0
        for i in range(240):
            total += hash((i, i + 1, i * 3)) & 7
        return total

    def _fire(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = self.clock()
        self._kernel()
        self.samples.append(self.clock() - start)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean probe speed, or None when no probe fired."""
        if not self.samples:
            return None
        return statistics.fmean(1.0 / d for d in self.samples)

    def busy(self, elapsed):
        """``elapsed`` wall seconds under the probe, minus the probes' own time."""
        return elapsed - sum(self.samples)


def measure(ops, seconds):
    """Run the operations round-robin until ``seconds`` have passed, each at
    least once; an operation is only started again while its median still
    fits in the remaining time.

    Returns per-operation wall times and probe-normalized work (see
    SpeedProbe; an operation too short for any probe uses the mean speed of
    all the others), the first result of each operation, failures
    (exceptions, changed fingerprints) and the number of calls made."""
    times = {op.name: [] for op in ops}
    raw_work = {op.name: [] for op in ops}  # (wall minus probes, speed)
    first = {}
    failures = []
    attempted = 0
    dead = set()
    probe = SpeedProbe()
    clock = time.perf_counter
    begin = clock()
    order = list(ops)
    while True:
        ran = False
        for op in order:
            done = times[op.name]
            if op.name in dead:
                continue
            if done and clock() - begin + statistics.median(done) > seconds:
                continue
            attempted += 1
            try:
                with probe:
                    start = clock()
                    result = op.call()
                    elapsed = clock() - start
            except Exception as exc:  # any crash is a failed operation
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                dead.add(op.name)
                continue
            done.append(elapsed)
            raw_work[op.name].append((probe.busy(elapsed), probe.speed()))
            ran = True
            try:
                fingerprint = op.fingerprint(result)
            except Exception as exc:  # an unreadable result is a failure too
                failures.append(f"{op.name}: result unreadable: {exc}")
                dead.add(op.name)
                continue
            if op.name not in first:
                first[op.name] = (result, fingerprint)
            elif fingerprint != first[op.name][1]:
                failures.append(f"{op.name}: repetition changed the result")
        if not ran:
            break
        # later rounds start with the longest operations, so that they too
        # get a second sample before the time is up
        order.sort(key=lambda op: -statistics.median(times[op.name] or [0.0]))
    speeds = [v for reps in raw_work.values() for _, v in reps if v is not None]
    fallback = statistics.fmean(speeds) if speeds else 0.0
    work = {
        name: [busy * (v if v is not None else fallback) / 1000.0 for busy, v in reps]
        for name, reps in raw_work.items()
    }
    return times, work, first, failures, attempted


def timed_setup(workload, repeats, seconds):
    """Set the workload up under the speed probe, at least ``repeats``
    times and until ``seconds`` of set-up have passed.

    Returns the last inputs, the wall times, and the set-up costs in seconds
    at ``REF_SPEED``: busy time times mean probe speed over REF_SPEED, so
    that the machine's speed phases cancel as they do in ``work_kref``."""
    probe = SpeedProbe()
    walls, costs = [], []
    inputs = None
    while len(walls) < repeats or sum(walls) < seconds:
        inputs = None  # free the previous set-up, so only one is ever live
        with probe:
            start = time.perf_counter()
            inputs = workload.setup()
            elapsed = time.perf_counter() - start
        walls.append(elapsed)
        speed = probe.speed() or REF_SPEED
        costs.append(probe.busy(elapsed) * speed / REF_SPEED)
    return inputs, walls, costs


def _expected_failures(workload_name, first):
    """Compare every operation's fingerprint with the stored one; returns
    the number compared and the mismatches."""
    expected = json.loads(EXPECTED.read_text()).get(workload_name, {})
    out = []
    for name, want in expected.items():
        got = first.get(name, (None, None))[1]
        if got != want:
            out.append(f"{name}: expected {want}, got {got}")
    return len(expected), out


def kind_metrics(ops, times, first, attempted, failed):
    """The per-kind figures: steps per second for runs, seconds to all
    verdicts of a kind for searches and claims, and the failure rate."""
    out = {}
    for kind in STEP_KINDS:
        steps = sum(first[op.name][1].get("steps", 0)
                    for op in ops if op.kind == kind and op.name in first)
        secs = sum(statistics.median(times[op.name])
                   for op in ops if op.kind == kind and times[op.name])
        if secs:
            out[f"{kind}_steps_per_s"] = (steps / secs, "1/s")
    for kind in TIME_KINDS:
        secs = [statistics.median(times[op.name])
                for op in ops if op.kind == kind and times[op.name]]
        if secs:
            out[f"{kind}_s"] = (sum(secs), "s")
    out["fail_rate"] = (failed / attempted if attempted else 1.0, "ratio")
    return out


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.make(name, seed, str(WORKDIR))
    try:
        inputs, setup_walls, setup_costs = timed_setup(workload, SETUP_REPEATS, SETUP_SECONDS)
        ops = workload.ops(inputs)
        times, work, first, failures, attempted = measure(ops, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:  # one output check per operation that ran
            if op.name in first:
                attempted += 1
                problems = op.check(first[op.name][0])
                if problems:
                    failures.append("; ".join(problems))
        if seed == DEFAULT_SEED and EXPECTED.exists():
            compared, mismatches = _expected_failures(name, first)
            attempted += compared
            failures += mismatches
        work_s = sum(statistics.median(t) for t in times.values() if t)
        result = {
            "workload": name,
            "seed": seed,
            "setup_s": statistics.median(setup_costs),
            "setup_wall_s": statistics.median(setup_walls),
            "work_s": work_s,
            "work_kref": sum(statistics.median(w) for w in work.values() if w),
            "peak_rss_mb": peak_rss_mb,
            "op_times_s": times,
            "op_work_kref": work,
            "fingerprints": {k: v[1] for k, v in first.items()},
        }
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_inputs, _, _ = timed_setup(workload, 1, 0)
                traced_ops = workload.ops(traced_inputs)
                _, t_work, t_first, t_failures, t_attempted = measure(traced_ops, 0)
            finally:
                tracer.uninstall()
            attempted += t_attempted
            failures += t_failures
            for op_name, (_, fingerprint) in t_first.items():
                if fingerprint != first.get(op_name, (None, None))[1]:
                    failures.append(f"{op_name}: traced result differs from untraced")
            traced_kref = sum(statistics.median(w) for w in t_work.values() if w)
            result["tracing_overhead"] = traced_kref / result["work_kref"]
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.table()
            result["step_ms"] = tracer.step_ms
        if name == "run-long" and "fhg-long" in first:
            result["trace_bytes"] = first["fhg-long"][1]["bytes"]
    finally:
        workload.cleanup()
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures
    result["kinds"] = kind_metrics(ops, times, first, attempted, len(failures))
    return result


def end_to_end(result):
    return {
        "setup_s": (result["setup_s"], "s"),
        "work_kref": (result["work_kref"], "kref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result):
    metrics = dict(result["layers"])
    metrics["cli.trace_bytes"] = (result.get("trace_bytes", 0), "bytes")
    metrics["tracing_overhead"] = (result["tracing_overhead"], "ratio")
    metrics["work_s"] = (result["work_s"], "s")
    for kind in STEP_KINDS:
        metrics.setdefault(f"{kind}_steps_per_s", (0.0, "1/s"))
    for kind in TIME_KINDS:
        metrics.setdefault(f"{kind}_s", (0.0, "s"))
    for key, value in result["kinds"].items():
        metrics[key] = value
    return metrics


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def record(path, result, metrics):
    target = Path(path)
    doc = json.loads(target.read_text()) if target.exists() else {}
    doc["machine"] = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }
    entry = {k: v for k, v in result.items() if k not in ("spans", "step_ms")}
    entry["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if "spans" in result:
        entry["spans"] = result["spans"]
    doc.setdefault("workloads", {})[result["workload"]] = entry
    target.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def print_summary(result, metrics):
    print(f"workload {result['workload']} seed {result['seed']}")
    for key, (value, unit) in result["kinds"].items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(f"  {'attempted':32s} {result['attempted']:14d}")
    print(f"  {'failed':32s} {result['failed']:14d}")
    for failure in result["failures"]:
        print(f"  ! {failure}")
    for key, (value, unit) in metrics.items():
        if key not in result["kinds"]:
            print(f"  {key:32s} {value:14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="run-enum | run-long | certify | all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="merge the full result into this JSON file")
    args = parser.parse_args(argv)

    import workloads

    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            forwarded = [sys.executable, __file__, "--workload", name,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
            if args.record:
                forwarded += ["--record", args.record]
            code = max(code, subprocess.run(forwarded).returncode)
        return code

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    metrics = per_layer(result) if args.trace else end_to_end(result)
    if args.record:
        record(args.record, result, metrics)
    print_summary(result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    _import_library()
    sys.exit(main())
