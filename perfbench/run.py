"""Benchmark for sftcocycles: two seeded workloads, one closed-loop caller.

Run one workload:

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0

Run every workload, each in its own process, one after another, with its
timed, traced and known-defect runs, and print a summary table:

    python3 perfbench/run.py --workload all --seed 1

A run builds the package from `src/` of the checkout it lives in, makes the
workload's inputs from the seed, and repeats whole passes over them until
`--seconds` have gone by.  Every operation is timed from outside through
the package's public functions and its result is checked against an
independent property.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, op_p90_ms, peak_rss_mb); with `--trace 1` the first half of the
time runs untraced and the second half with every layer function wrapped
(see layertrace.py), and the metrics are the per-layer ones.  The line before
it is a JSON detail record: sample counts, failure counts with the failing
operations named, per-family timings, the result digest and, when traced,
the machine-independent counters.  Work counts are per pass; times are
per pass as well, averaged over the traced passes.

`--defects 1` adds to every pass the operations that reproduce known
defects of the package.  They count as failed operations while the defect
stands, but do not make the run incorrect.  Each operation has a deadline
of DEADLINE_S seconds, after which it is stopped and counted as failed.

Never run under `python -O`: the minimality search checks its witnesses
with `assert`.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from oracles import CheckFailed
from layertrace import LAYERS, Tracer
from workloads import BUILDERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("library", "cli")

SETUP_SAMPLES = 5  # set-ups per run (this process plus fresh processes)
DEADLINE_S = 5.0  # per operation; the slowest passing operation takes about 0.5 s
MIN_PASSES = 2  # so the result digest and work counts are compared at least once

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: (layer, function) -> which of calls / self time to report.
LAYER_FUNCTIONS = {
    "sft": {
        "is_primitive": ("self_s",),
        "is_irreducible": ("self_s",),
        "higher_block": ("self_s",),
        "enumerate_words": ("self_s",),
        "has_cycle_within": ("self_s",),
        "check_word": ("calls", "self_s"),
        "matrix_init": ("calls", "self_s"),
    },
    "locfun": {
        "cocycle_sum": ("calls", "self_s"),
        "locfun_init": ("calls", "self_s"),
        "psi_transfer": ("self_s",),
    },
    "groupoid": {
        "minimality_search": ("calls", "self_s"),
        "minimality_verdict": ("self_s",),
        "compose": ("calls", "self_s"),
        "membership_split": ("calls", "self_s"),
    },
    "coboundary": {
        "classify_potential": ("self_s",),
        "solve_potential": ("self_s",),
        "cycle_sums": ("self_s",),
    },
    "support": {
        "sigma_family": ("self_s",),
        "inclusion_matrix": ("self_s",),
        "weight_word_census": ("self_s",),
    },
    "suspension": {"suspended_matrix": ("self_s",)},
    "ktheory": {
        "smith_normal_form": ("self_s",),
        "perron_value": ("self_s",),
        "dimension_report": ("self_s",),
    },
    "cli": {"main": ("calls", "self_s")},
}
COUNTERS = (
    "sft.block_vertices",
    "sft.words_enumerated",
    "locfun.table_entries",
    "groupoid.search.found",
    "groupoid.search.exhausted",
    "coboundary.cycles_enumerated",
    "support.family_words",
    "support.inclusion_cells",
    "suspension.tower_states",
    "ktheory.smith_cells",
    "cli.exit.0",
    "cli.exit.1",
    "cli.exit.2",
    "cli.exit.3",
    "cli.exit.4",
    "cli.uncaught",
)
RATIOS = {
    "groupoid.search.found_frac": ("groupoid.search.found", "groupoid.search.runs"),
    "groupoid.verdict.certified_frac": ("groupoid.verdict.certified", "groupoid.verdict.runs"),
    "coboundary.solve.success_frac": ("coboundary.solve.success", "coboundary.solve.runs"),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        for fn, kinds in LAYER_FUNCTIONS[layer].items():
            for kind in kinds:
                units["%s.%s.%s" % (layer, fn, kind)] = "count" if kind == "calls" else "s"
        for name in COUNTERS:
            if name.startswith(layer + "."):
                units[name] = "count"
        for name in RATIOS:
            if name.startswith(layer + "."):
                units[name] = "ratio"
        units[layer + ".self_s"] = "s"
        units[layer + ".failed"] = "count"
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class DeadlineExceeded(BaseException):
    """Raised inside an operation that ran past its deadline."""


class _Alarm:
    armed = False

    @classmethod
    def fire(cls, signum, frame):
        if cls.armed:
            cls.armed = False
            raise DeadlineExceeded()


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "sftcocycles", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("perfbench: %s not found; run from a full checkout" % init)
    sys.path.insert(0, SRC)
    import sftcocycles

    if os.path.realpath(sftcocycles.__file__) != os.path.realpath(init):
        raise SystemExit("perfbench: imported sftcocycles from %s" % sftcocycles.__file__)
    return sftcocycles


def run_op(op, tracer=None):
    """Run one operation under the deadline: (result, error text, seconds)."""
    call = op.run if tracer is None else (lambda: tracer.span("op." + op.family, op.run))
    result, error = None, None
    _Alarm.armed = True
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = perf_counter()
    try:
        result = call()
    except DeadlineExceeded:
        error = "stopped at the %.0f s deadline" % DEADLINE_S
    except Exception as exc:  # an operation that raises is a failed operation
        error = "raised %s: %s" % (type(exc).__name__, str(exc)[:200])
    finally:
        elapsed = perf_counter() - start
        _Alarm.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, error, elapsed


def setup(workload, seed, tiny, workdir):
    """Import the package, build the corpus, and warm up: (seconds, ops, defects)."""
    start = perf_counter()
    sc = load_package()
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "cli":
        ops, defects = BUILDERS[workload](sc, rng, tiny, workdir)
    else:
        ops, defects = BUILDERS[workload](sc, rng, tiny)
    warmed = set()
    for op in ops:
        if op.family not in warmed:
            warmed.add(op.family)
            run_op(op)
    return perf_counter() - start, ops, defects


def run_pass(ops, known, tracer=None):
    """One pass over the corpus; returns its samples and outcomes."""
    durations, failures, digest = [], [], hashlib.sha256()
    unexpected = 0
    for op in ops:
        result, error, elapsed = run_op(op, tracer)
        durations.append(elapsed)
        if error is None:
            try:
                summary = op.check(result)
            except CheckFailed as exc:
                error = "check failed: %s" % exc
            except Exception as exc:  # a check that cannot digest the result
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failures.append((op.name, error))
            summary = "FAILED"
            unexpected += op.name not in known
        digest.update(("%s\t%s\n" % (op.name, summary)).encode())
    return {
        "durations": durations,
        "failures": failures,
        "unexpected": unexpected,
        "digest": digest.hexdigest(),
    }


def run_passes(ops, known, seconds, tracer=None, min_passes=MIN_PASSES):
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        passes.append(run_pass(ops, known, tracer))
        if tracer is not None:
            passes[-1]["work"] = tracer.work_snapshot()
    return passes


def nearest_rank(sorted_values, q):
    index = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(index)]


def summarize(passes, ops):
    """Timing summary over all passes: throughput and pooled percentiles.

    Pooling every sample of the run, rather than taking medians of
    per-pass figures, averages over the slow and fast phases of a shared
    host, which last longer than one pass.
    """
    ordered = sorted(d for p in passes for d in p["durations"])
    completed = len(ordered) - sum(len(p["failures"]) for p in passes)
    families = {}
    for i, op in enumerate(ops):
        fam = families.setdefault(op.family, [0, []])
        fam[0] += 1
        fam[1].extend(p["durations"][i] for p in passes)
    return {
        "samples": len(ordered),
        "ops_per_s": completed / sum(ordered),
        "p50_ms": 1000 * nearest_rank(ordered, 50),
        "p90_ms": 1000 * nearest_rank(ordered, 90),
        "families": {
            name: {
                "ops_per_pass": n,
                "p50_ms": 1000 * statistics.median(ds),
                "sum_s_per_pass": sum(ds) / len(passes),
            }
            for name, (n, ds) in sorted(families.items())
        },
    }


def layer_metrics(tracer, traced_passes, untraced_rate, traced_rate):
    """Per-layer metrics from the tracer; work counts are those of the first pass."""
    first = traced_passes[0]["work"]
    n = len(traced_passes)
    totals = tracer.totals()
    metrics = {}
    for name, unit in per_layer_units().items():
        layer, _, rest = name.partition(".")
        if name in RATIOS:
            num, den = RATIOS[name]
            value = first.get(num, 0) / first[den] if first.get(den) else 0.0
        elif rest == "self_s":
            value = sum(e[1] for fn, e in totals.items() if fn.startswith(layer + ".")) / n
        elif rest == "failed":
            value = sum(e[2] for fn, e in totals.items() if fn.startswith(layer + ".")) // n
        elif name.endswith(".calls"):
            value = first.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = totals[name[: -len(".self_s")]][1] / n if name[: -len(".self_s")] in totals else 0.0
        elif name in COUNTERS:
            value = first.get(name, 0)
        else:
            continue
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": untraced_rate / traced_rate, "unit": "ratio"}
    return metrics


def work_per_pass(passes):
    """Per-pass work counts from cumulative snapshots."""
    out, prev = [], {}
    for p in passes:
        cur = p["work"]
        out.append({k: v - prev.get(k, 0) for k, v in cur.items() if v - prev.get(k, 0)})
        prev = cur
    return out


def setup_probe_times(args):
    """Set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-probe",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n%s" % proc.stderr)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        signal.signal(signal.SIGALRM, _Alarm.fire)
        tiny = args.size == "tiny"
        setup_s, ops, defects = setup(args.workload, args.seed, tiny, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_times = [setup_s] + setup_probe_times(args)
        known = set()
        if args.defects:
            ops = ops + defects
            known = {op.name for op in defects}
        detail = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace, "defects": args.defects,
            "ops_per_pass": len(ops), "setup_samples_s": setup_times,
        }
        if args.trace:
            half = args.seconds / 2
            plain = run_passes(ops, known, half, min_passes=1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(ops, known, half, tracer)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)))
            untraced_rate = summarize(plain, ops)["ops_per_s"]
            summary = summarize(traced, ops)
            metrics = layer_metrics(tracer, traced, untraced_rate, summary["ops_per_s"])
            works = work_per_pass(traced)
            repeat_ok = all(w == works[0] for w in works)
            passes = plain + traced
            detail["counters"] = {k: works[0][k] for k in sorted(works[0])}
            detail["work_repeats"] = repeat_ok
        else:
            passes = run_passes(ops, known, args.seconds)
            summary = summarize(passes, ops)
            repeat_ok = True
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": summary["ops_per_s"],
                "op_p50_ms": summary["p50_ms"],
                "op_p90_ms": summary["p90_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        digests = {p["digest"] for p in passes}
        failures = [f for p in passes for f in p["failures"]]
        attempted = sum(len(p["durations"]) for p in passes)
        correct = len(digests) == 1 and repeat_ok and not any(p["unexpected"] for p in passes)
        detail.update(
            {
                "passes": len(passes),
                "samples": summary["samples"],
                "attempted": attempted,
                "failed": len(failures),
                "failed_frac": len(failures) / attempted,
                "failing_ops": sorted({"%s (%s)" % f for f in failures}),
                "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
                "families": summary["families"],
            }
        )
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _child(workload, seed, seconds, trace, defects=0, size="full"):
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--defects", str(defects), "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s failed:\n%s" % (" ".join(cmd), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(args):
    """Every workload in its own process, one after another, with a summary."""
    print("seed %d, %s inputs, %g s per run, closed loop with one caller" % (args.seed, args.size, args.seconds))
    header = "%-11s %9s %10s %14s %14s %8s %9s  %s"
    print(header % ("workload", "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "rss_MiB", "overhead", "failed/attempted (with known defects)"))
    layer_report = {}
    all_correct = True
    for workload in WORKLOADS:
        detail, result = _child(workload, args.seed, args.seconds, 0, size=args.size)
        tdetail, traced = _child(workload, args.seed, args.seconds, 1, size=args.size)
        ddetail, dresult = _child(workload, args.seed, 0, 0, defects=1, size=args.size)
        all_correct &= result["correct"] and traced["correct"] and dresult["correct"]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        n = detail["samples"]
        print(
            header
            % (
                workload, "%.3f" % m["setup_s"], "%.2f" % m["ops_per_s"],
                "%.3f (n=%d)" % (m["op_p50_ms"], n), "%.3f (n=%d)" % (m["op_p90_ms"], n),
                "%.1f" % m["peak_rss_mb"], "%.2fx" % traced["metrics"]["trace.overhead_ratio"]["value"],
                "%d/%d = %.4f" % (ddetail["failed"], ddetail["attempted"], ddetail["failed_frac"]),
            )
        )
        failing = ddetail["failing_ops"]
        for name in failing[:5]:
            print("    failing: %s" % name)
        if len(failing) > 5:
            print("    ... and %d more failing operations" % (len(failing) - 5))
        layer_report[workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    print("\nper-layer metrics, traced run (per pass; times in s):")
    names = list(per_layer_units())
    print("%-42s" % "metric" + "".join("%14s" % w for w in WORKLOADS))
    for name in names:
        row = [layer_report[w].get(name, 0) for w in WORKLOADS]
        print("%-42s" % name + "".join(("%14.6g" % v) for v in row))
    print("\ncorrect: %s" % all_correct)
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", type=int, choices=(0, 1), default=0,
                        help="add the operations that reproduce known defects")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not __debug__:
        raise SystemExit("perfbench: do not run under python -O (the search verifies with assert)")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
