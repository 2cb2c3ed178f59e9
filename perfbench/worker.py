"""One workload in one process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Builds the workload (the set-up) and prints ``READY``.  With
``--setup-only`` it stops there; ``run.py`` starts such processes to time
the set-up more than once per run.  Otherwise it runs passes over the
query list for about S seconds and prints one JSON line with the raw
timings and failures.  With ``--trace 1`` it spends half the time untraced
and half traced, and adds the span aggregate of the traced half.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import speed  # noqa: E402

SEGMENT_S = 0.5


def run_passes(queries, seconds, tracer=None):
    """Closed loop, one caller: each query starts when the previous one has
    its verdict.  Passes repeat while another one fits in ``seconds``; the
    first always runs.  Only the library call is timed, not the check.

    Between queries, at least every ``SEGMENT_S`` seconds of work, a speed
    probe runs (untimed); each query's time is scaled by the probes on both
    sides of its segment.  ``times_ms`` (scaled) and ``raw_ms`` hold one
    list per pass, in query order; ``walls`` are raw pass times."""
    walls, times, raw, failures, attempted, unchecked = [], [], [], {}, 0, 0
    start = time.perf_counter()
    while queries and (not walls or time.perf_counter() - start + statistics.median(walls) <= seconds):
        wall, pass_raw, pass_times, segment = 0.0, [], [], []
        before = speed.probe()
        for i, q in enumerate(queries):
            attempted += 1
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = q.run()
                error = None
            except Exception as exc:  # a crash is a failed query, not a crashed benchmark
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            if error is None:
                try:
                    error = q.check(out)
                except Exception as exc:
                    unchecked += 1
                    error = f"check raised {type(exc).__name__}: {exc}"
            wall += elapsed
            pass_raw.append(elapsed * 1000.0)
            segment.append(elapsed)
            if error:
                key = f"{q.label}: {error}"
                failures[key] = failures.get(key, 0) + 1
            if sum(segment) >= SEGMENT_S or i == len(queries) - 1:
                after = speed.probe()
                factor = speed.scale(before, after)
                pass_times += [t * 1000.0 * factor for t in segment]
                before, segment = after, []
        walls.append(wall)
        times.append(pass_times)
        raw.append(pass_raw)
    return {"walls": walls, "times_ms": times, "raw_ms": raw, "attempted": attempted,
            "failures": failures, "unchecked": unchecked}


def ask_known_defects(queries):
    """Ask each known-defect query once, untimed; map its label to the
    error of its answer, or None when the answer was right."""
    answers = {}
    for q in queries:
        try:
            answers[q.label] = q.check(q.run())
        except Exception as exc:
            answers[q.label] = f"{type(exc).__name__}: {exc}"
    return answers


def peak_rss_mb(children):
    """Peak resident memory of this process, or of its largest child when
    the workload's work runs in child processes."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hylo

    if not os.path.abspath(hylo.__file__).startswith(SRC + os.sep):
        print(f"hylo imported from {hylo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT)
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        queries = wl.queries
        result = {"workload": wl.name, "seed": args.seed, "corpus": wl.corpus,
                  "queries_per_pass": len(queries), "groups": [q.group for q in queries]}
        if args.trace:
            untraced = run_passes(queries, args.seconds / 2)
            tracer = spans.Tracer()
            spans.install(tracer, [workloads])
            wl.start_tracing()
            traced = run_passes(queries, args.seconds / 2, tracer)
            tracer.on = False
            wl.collect_traces(tracer)
            dump = tracer.dump()
            path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(dump, workload=wl.name, seed=args.seed), fh)
            del dump["spans"]
            result.update(run=untraced, traced_run=traced, aggregate=dump, layers=wl.layers(),
                          spans_file=os.path.relpath(path, os.path.dirname(HERE)))
        else:
            result["run"] = run_passes(queries, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb(wl.in_children)
        result["known_defects"] = ask_known_defects(wl.known_defects)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
