"""Verdict benchmark for hylo.

    python3 perfbench/run.py --workload library --seed 1 --seconds 52 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a checkout.  A run of a workload times its set-up in
``SETUPS`` worker processes (``worker.py``), the last of which then answers
the workload's queries in passes for ``--seconds``.  With ``--trace 0`` the
last line of standard output is the JSON result with the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics and
the tracing overhead instead.  Lines before it are a human-readable report.
Full results and spans go to ``perfbench/out/``.  NOTES.md lists the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("library", "cli")
SETUPS = 5
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def _spawn(args):
    """Start a worker; return the seconds until it printed READY (its
    set-up, interpreter start included) and the JSON line it ended with."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None)


def tail_percentile(queries):
    """Highest ladder percentile with at least ten queries beyond it."""
    for q in TAIL_LADDER:
        if queries * (100.0 - q) / 100.0 >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def best_times_ms(run, key="times_ms"):
    """One time per query: its fastest pass, after scaling each time to the
    reference speed (speed.py).  Interrupts and other tenants only ever add
    time, so the fastest pass is the query's own cost (NOTES.md, "Time and
    noise")."""
    return [min(ts) for ts in zip(*run[key])]


def _wall(run, key="times_ms"):
    """One pass over all queries at each query's best time."""
    return sum(best_times_ms(run, key)) / 1000.0


def _timed_spawn(args):
    """``_spawn`` with its set-up time scaled to the reference speed."""
    before = speed.probe()
    setup, out = _spawn(args)
    return setup * speed.scale(before, speed.probe()), setup, out


def run_workload(name, seed, seconds, trace):
    """One run: SETUPS - 1 set-up-only workers, then the measuring worker."""
    base = ["--workload", name, "--seed", str(seed)]
    spawned = [_timed_spawn(base + ["--setup-only"]) for _ in range(SETUPS - 1)]
    spawned.append(_timed_spawn(base + ["--seconds", str(seconds), "--trace", str(trace)]))
    setups = [s[0] for s in spawned]
    out = spawned[-1][2]
    run = out["run"]
    times = best_times_ms(run)
    failed = sum(run["failures"].values())
    q = tail_percentile(out["queries_per_pass"])
    result = {key: out[key] for key in ("workload", "seed", "corpus", "queries_per_pass")}
    result.update(worker=out, setup_s_samples=setups, raw_setup_s=[s[1] for s in spawned],
                  raw_wall_s=_wall(run, "raw_ms"), failures=run["failures"], tail_percentile=q,
                  attempted=run["attempted"], failed=failed, known_defects=out["known_defects"])
    result["end_to_end"] = {
        "wall_s": (_wall(run), "s", len(run["walls"])),
        "query_p50_ms": (statistics.median(times), "ms", len(times)),
        "query_tail_ms": (percentile(times, q), "ms", len(times)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (out["peak_rss_mb"], "MB", 1),
    }
    # Wrong verdicts, exceptions and wrong exit codes are failed queries.
    # ``correct`` is false only when the benchmark could not check a verdict.
    result["correct"] = run["unchecked"] == 0
    if trace:
        tracer = spans.Tracer()
        tracer.merge(out["aggregate"])
        layers = spans.layer_metrics(tracer)
        layers.update(out["layers"])
        by_group = {}
        for group, t in zip(out["groups"], times):
            if group is not None:
                by_group.setdefault(group, []).append(t / 1000.0)
        layers.update({f"cli.command_s.{g}": statistics.median(v) for g, v in by_group.items()})
        base_wall, slow = _wall(run), _wall(out["traced_run"])
        layers["trace.overhead_s"] = slow - base_wall
        layers["trace.overhead_share"] = (slow - base_wall) / base_wall
        layers["known_defects.wrong"] = sum(1 for e in out["known_defects"].values() if e)
        result["layers"] = layers
        result["spans_file"] = out["spans_file"]
        result["correct"] = result["correct"] and out["traced_run"]["unchecked"] == 0
    return result


def provenance(seed):
    import numpy

    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(os.path.join(SRC, "hylo"))):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def report(result, trace):
    name = result["workload"]
    lines = [f"# workload {name} seed {result['seed']} corpus {json.dumps(result['corpus'])}"]
    for metric, (value, unit, n) in result["end_to_end"].items():
        note = f" (p{result['tail_percentile']:g})" if metric == "query_tail_ms" else ""
        lines.append(f"{name:6s} {metric:14s} {value:14.6f} {unit:5s} n={n}{note}")
    lines.append(f"{name:6s} raw_wall_s     {result['raw_wall_s']:14.6f} s     (unscaled)")
    lines.append(
        f"{name:6s} failed_share   {result['failed'] / result['attempted']:14.6f} share "
        f"n={result['attempted']}"
    )
    for failure, count in sorted(result["failures"].items()):
        lines.append(f"{name:6s} FAILED x{count}: {failure}")
    for label, error in result["known_defects"].items():
        verdict = f"KNOWN DEFECT: {error}" if error else "answered right"
        lines.append(f"{name:6s} untimed {label}: {verdict}")
    if trace:
        for metric, value in result["layers"].items():
            lines.append(f"{name:6s} {metric:34s} {value:16.6f}")
        lines.append(f"{name:6s} spans written to {result['spans_file']}")
    return lines


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=52)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hylo", "__init__.py")):
        print(f"perfbench: no hylo sources under {SRC}", file=sys.stderr)
        return 2
    units = _units()
    prov = provenance(args.seed)
    print("# " + json.dumps(prov))
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    last = None
    for name in names:
        for trace in traces:
            try:
                result = run_workload(name, args.seed, args.seconds, trace)
            except (RuntimeError, ValueError, KeyError, IndexError) as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 1
            result["provenance"] = prov
            for line in report(result, trace):
                print(line)
            path = os.path.join(HERE, "out", f"{name}-seed{args.seed}-trace{trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            if trace:
                metrics = result["layers"]
            else:
                metrics = {k: v[0] for k, v in result["end_to_end"].items()}
            last = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
    if args.workload and args.trace is not None:
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
