"""dgreader benchmark: four workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

One run, in one process:

    python3 perfbench/run.py --workload train-quick --seed 0 --seconds 24 --trace 0

prints every metric by name with its unit, a `perfbench-report` JSON
line with the machine, the seeds, every check and the result digests,
and as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).

All four workloads, each untraced and traced with the same seed, with
the tracing overhead and the proof that tracing changes no result:

    python3 perfbench/run.py --all --seed 0 --seconds 24

The program is imported from ./src of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REPORT_PREFIX = "perfbench-report "
# One BLAS thread: the load is one process with one compute thread,
# which keeps figures steady on a shared machine.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "eval_samples_per_s": ("samples/s", "higher"),
    "eval_batch_ms.p50": ("ms", "lower"),
    "eval_batch_ms.p90": ("ms", "lower"),
    "gradcheck_evals_per_s": ("evals/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0, help="BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("--workload is required unless --all is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put ./src first on the path and import dgreader from it; exit 2
    when the checkout has no program."""
    if not (SRC / "dgreader" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'dgreader'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dgreader

    if Path(dgreader.__file__).resolve().parent != (SRC / "dgreader").resolve():
        fail(f"imported dgreader from {dgreader.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _process_threads():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the record says so
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "process_threads": _process_threads(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _seconds(unit, scaled: bool) -> float:
    """A unit's timed seconds; scaled per operation when it has them."""
    if not scaled:
        return unit.seconds
    if unit.op_seconds:
        return sum(s * v for s, v in zip(unit.op_seconds, unit.op_speeds))
    return unit.seconds * unit.speed


def _rate(units, scaled: bool) -> float:
    """Median over units of work per second."""
    rates = [u.work / _seconds(u, scaled) for u in units if u.seconds > 0 and not u.failed]
    return statistics.median(rates) if rates else 0.0


def _op_seconds(units, scaled: bool) -> list[float]:
    return [
        s * (v if scaled else 1.0)
        for u in units if not u.failed for s, v in zip(u.op_seconds, u.op_speeds)
    ]


def end_to_end(results, setup, peak, scaled: bool = True) -> tuple[dict, dict]:
    """Metric values and their sample counts. With `scaled`, every
    timing is scaled to the reference host speed (workloads.HostSpeed);
    without it, timings are plain wall time."""
    import numpy as np

    batch_ms = [1e3 * s for s in _op_seconds(results["eval"].timed, scaled)]
    loss_evals = _op_seconds(results["gradcheck"].timed, scaled)
    p50, p90 = (np.percentile(batch_ms, [50, 90]) if batch_ms else (0.0, 0.0))
    setup_seconds = [
        s * (v if scaled else 1.0) for s, v in zip(setup.seconds, setup.speeds)
    ]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "train_samples_per_s": _rate(results["train"].timed, scaled),
        "eval_samples_per_s": _rate(results["eval"].timed, scaled),
        "eval_batch_ms.p50": float(p50),
        "eval_batch_ms.p90": float(p90),
        "gradcheck_evals_per_s": 1.0 / statistics.median(loss_evals) if loss_evals else 0.0,
        "peak_rss_mb": peak,
    }
    counts = {
        "setup_s": f"median of {len(setup_seconds)} set-ups spread over the run",
        "train_samples_per_s": f"median of {len(results['train'].timed)} trainer.train calls",
        "eval_samples_per_s": f"median of {len(results['eval'].timed)} passes",
        "eval_batch_ms.p50": f"n={len(batch_ms)} batches",
        "eval_batch_ms.p90": f"n={len(batch_ms)} batches",
        "gradcheck_evals_per_s": f"inverse median of {len(loss_evals)} loss evaluations",
        "peak_rss_mb": "process high-water mark",
    }
    return values, counts


def run_one(args) -> int:
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = wl.write_inputs(workload, args.seed, workdir)
        if tracer is not None:
            tracer.install()
        with wl.tracing_on(tracer):
            setup = wl.Setup(workload, paths, args.seed)
        phases = {name: cls(workload, setup, args.seed) for name, cls in wl.PHASES.items()}
        results = wl.run_phases(phases, workload, args.seconds, setup, tracer)
        if tracer is not None:
            tracer.setups = len(setup.seconds)
        peak = wl.peak_rss_mib()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, counts = end_to_end(results, setup, peak)
    wall, _ = end_to_end(results, setup, peak, scaled=False)
    speeds = [u.speed for r in results.values() for u in r.timed]
    units = [u for r in results.values() for u in r.units]
    attempted = sum(u.ops for u in units)
    failed = sum(min(u.failed, u.ops) for u in units)
    failures = [f"{name}: {msg}" for name, r in results.items() for u in r.units for msg in u.failures]
    train_ref = results["train"].reference[0].info
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "seeds": wl.split_seeds(args.seed),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k][0], "n": counts[k]} for k, v in values.items()},
        "wall_end_to_end": wall,
        "host_speed": {"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds),
                       "reference_rate": wl.REFERENCE_RATE},
        "final_train_loss": train_ref.get("final_train_loss"),
        "epoch_losses": train_ref.get("epoch_losses"),
        "gradcheck_max_rel_error": {
            u.info["preset"]: u.info["max_rel_error"] for u in results["gradcheck"].reference if u.info
        },
        "oracle_checked": phases["eval"].oracle_checked,
        "setup_seconds": setup.seconds,
        "unit_rates": {
            name: [round(u.work / u.seconds, 3) for u in r.timed if u.seconds > 0]
            for name, r in results.items()
        },
        "unit_speeds": {name: [round(u.speed, 3) for u in r.timed] for name, r in results.items()},
        "digests": {name: [u.digest for u in r.reference] for name, r in results.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }
    if tracer is not None:
        report["per_layer"] = tracer.layer_metrics()

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    m = report["machine"]
    print(
        f"machine: nproc {m['nproc']} ({m['cpu_model']}), Python {m['python']}, numpy {m['numpy']}, "
        f"BLAS {m['blas']} with {m['blas_threads']} thread(s), {m['process_threads']} process thread(s)"
    )
    h = report["host_speed"]
    print(f"host speed {h['median']:.3f} of the reference (from {h['min']:.3f} to {h['max']:.3f}); "
          f"timings are scaled to the reference, wall time in brackets")
    for name, entry in report["end_to_end"].items():
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']:<10} "
              f"[{wall[name]:.6g}] ({entry['n']})")
    print(f"  final training loss {report['final_train_loss']!r} after {workload.epochs} epochs "
          f"(every unit must reproduce it bit for bit)")
    print(f"  gradcheck max relative error per preset: {report['gradcheck_max_rel_error']}")
    print(f"  scalar-oracle samples checked: {report['oracle_checked']}")
    print(f"  operations attempted {attempted}, failed {failed}")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    if tracer is not None:
        for name, value in report["per_layer"].items():
            print(f"  {name:<26} {value:>14.6g} {tracing.LAYER_METRICS[name][0]}")
    print(REPORT_PREFIX + json.dumps(report, sort_keys=True))

    if tracer is not None:
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
    correct = failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = next(json.loads(l[len(REPORT_PREFIX):]) for l in lines if l.startswith(REPORT_PREFIX))
    return report, json.loads(lines[-1])


def run_all(args) -> int:
    import workloads as wl
    import tracing

    ok = True
    for name in wl.WORKLOADS:
        plain, plain_result = _child(name, args.seed, args.seconds, 0)
        traced, traced_result = _child(name, args.seed, args.seconds, 1)
        inert = plain["digests"] == traced["digests"]
        correct = plain_result["correct"] and traced_result["correct"]
        ok = ok and inert and correct
        print(f"== {name}  seed {args.seed}  ({wl.WORKLOADS[name].why})")
        print(f"   correct: {correct}  attempted {plain['attempted']} + {traced['attempted']}, "
              f"failed {plain['failed']} + {traced['failed']}")
        print(f"   traced and untraced runs end with identical parameters, predictions "
              f"and gradient errors: {inert}")
        print(f"   {'end-to-end metric':<24} {'untraced':>12} {'traced':>12}  unit        tracing overhead")
        for metric, (unit, better) in END_TO_END.items():
            a = plain["end_to_end"][metric]["value"]
            b = traced["end_to_end"][metric]["value"]
            worse = ((b - a) if better == "lower" else (a - b)) / a if a else 0.0
            print(f"   {metric:<24} {a:>12.6g} {b:>12.6g}  {unit:<10}  {100 * worse:+.1f}% "
                  f"({plain['end_to_end'][metric]['n']})")
        print(f"   {'per-layer metric (traced)':<26} value")
        for metric, (unit, _) in tracing.LAYER_METRICS.items():
            print(f"   {metric:<26} {traced['per_layer'][metric]:>12.6g} {unit}")
        for msg in plain["failures"] + traced["failures"]:
            print(f"   FAILED {msg}")
        sys.stdout.flush()
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its input files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # before numpy is first imported, which is why imports of numpy, the
    # program and the benchmark's own modules sit inside functions
    for variable in THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    import_program()
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
