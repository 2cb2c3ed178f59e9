"""In-memory span tracer for the traced benchmark run.

``install`` wraps public functions of hylo both where they are defined and
in every module that imported them (``hylo.solver.verify`` is the same
wrapper as ``hylo.blocktree.verify``).  Each call becomes a span with a
name, start, end and parent.  All spans are aggregated per (name, parent)
into call counts, total and self seconds; the first ``MAX_SPANS`` are also
kept whole and written out at the end, because functions such as
``free_vars`` run millions of times.  Self time is a span's duration
minus the durations of its child spans.

Untraced runs never install the wrappers, so end-to-end numbers carry no
tracing cost.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
import time

MAX_SPANS = 50_000

# Labeled frames per frame class and size: OEIS A006905 for transitive
# relations, Cayley's k^(k-1) rooted labeled trees for transitive trees.
_TRANSITIVE = {1: 2, 2: 13, 3: 171, 4: 3994, 5: 154303, 6: 9415189, 7: 878222530}


def labeled_frames(frame: str, k: int) -> int:
    if frame == "any":
        return 1 << (k * k)
    if frame == "transitive":
        return _TRANSITIVE[k]
    if frame == "complete":
        return 1
    if frame == "linear":
        return math.factorial(k)
    if frame == "transitive-tree":
        return k ** (k - 1)
    raise ValueError(f"unknown frame class {frame!r}")


class Tracer:
    def __init__(self):
        self.on = True
        self.stack = []  # [span id, name, seconds covered by children, start]
        self.agg = {}  # (name, parent name) -> [calls, seconds, self seconds]
        self.spans = []  # (id, parent id, name, start, end)
        self.counters = {}
        self.next_id = 1
        self.t0 = time.perf_counter()

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _push(self, name):
        frame = [self.next_id, name, 0.0, time.perf_counter()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _pop(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, child, start = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[1] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start - self.t0, end - self.t0)
            )
        return key[1]

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                parent = tracer._pop(frame)
            if observe is not None:
                tracer.on = False
                try:
                    observe(tracer, parent, args, kwargs, out)
                finally:
                    tracer.on = True
            return out

        return traced

    def wrap_generator(self, name, fn):
        """Spans cover each step of the generator, not the consumer's work
        between steps; ``<name>.items`` counts what it yielded."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return gen if not tracer.on else tracer._steps(name, gen)

        return traced

    def _steps(self, name, gen):
        while True:
            frame = self._push(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._pop(frame)
            self.count(name + ".items")
            yield item

    # -- derived numbers ---------------------------------------------------

    def calls(self, *names):
        return sum(rec[0] for (name, _), rec in self.agg.items() if name in names)

    def inclusive(self, *names):
        """Seconds inside the named functions, counting nested calls among
        them once."""
        return sum(
            rec[1] for (name, parent), rec in self.agg.items() if name in names and parent not in names
        )

    def self_seconds(self, prefix):
        return sum(rec[2] for (name, _), rec in self.agg.items() if name.startswith(prefix))

    def dump(self):
        return {
            "aggregate": [
                {"name": n, "parent": p, "calls": r[0], "seconds": r[1], "self_seconds": r[2]}
                for (n, p), r in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
            ],
            "counters": self.counters,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
            "spans_kept": len(self.spans),
            "spans_total": self.next_id - 1,
        }

    def merge(self, doc):
        """Fold the aggregate of another process's tracer into this one."""
        for row in doc["aggregate"]:
            rec = self.agg.setdefault((row["name"], row["parent"]), [0, 0.0, 0.0])
            rec[0] += row["calls"]
            rec[1] += row["seconds"]
            rec[2] += row["self_seconds"]
        for key, value in doc["counters"].items():
            self.count(key, value)


# -- what gets wrapped ---------------------------------------------------------

_TRANSLATIONS = (
    "until_via_down", "until_via_down_tense", "since_via_down_tense", "ml_to_until",
    "globsat_reduction", "u_to_upp", "upp_to_u", "standard_translation", "st_complete",
    "ht", "complete_reduction", "zigzag", "spy_at", "spy_fp", "tt_to_nat_tense",
    "tt_to_nat_at", "at_elim_linear", "string_reduction", "exists_to_at",
    "pdl_translate", "pdl_reduction", "pdl_reduction_flat",
)
TRANSLATE_NAMES = tuple(f"translate.{n}" for n in _TRANSLATIONS)
SWEEP_NAMES = ("oracle.brute_sat", "oracle.brute_global_sat", "oracle.find_eval_difference")
CHECKER_NAMES = ("checker.eval_formula", "checker.global_eval", "checker.phi_type")
SOLVER_NAMES = ("solver.sat_transitive", "solver.sat_complete")
CLI_SUBCOMMANDS = ("parse", "check", "sat", "realize", "oracle", "translate")


def _count_nodes(node):
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return 1 + sum(_count_nodes(getattr(node, f.name)) for f in dataclasses.fields(node))
    if isinstance(node, (tuple, list, frozenset)):
        return sum(_count_nodes(x) for x in node)
    return 0


def _observe_solver(tracer, parent, args, kwargs, out):
    tracer.count("solver.candidates", out.candidates)


def _observe_verify(tracer, parent, args, kwargs, out):
    if out.accepted:
        tracer.count("blocktree.accepted")
    elif out.reason.startswith("type mismatch"):
        tracer.count("blocktree.reject_mismatch")
    else:
        tracer.count("blocktree.reject_nostate")


def _observe_translation(tracer, parent, args, kwargs, out):
    if parent not in TRANSLATE_NAMES:
        tracer.count("translate.output_nodes", _count_nodes(out))


def _observe_sweep(formula_mod, fn):
    """Labeled frames and valuations a sweep answer covers: every size below
    the first hit (or every size up to the bound on a miss), plus the hit
    itself.  The count depends on the answer only, so it stays comparable
    when the oracle learns to skip isomorphic frames."""
    signature = inspect.signature(fn)

    def observe(tracer, parent, args, kwargs, out):
        if parent in SWEEP_NAMES:
            return
        bound_args = signature.bind(*args, **kwargs)
        bound_args.apply_defaults()
        named = bound_args.arguments
        formulas = [named[n] for n in ("phi", "f1", "f2") if n in named]
        frame, bound, atoms = named["frame"], named["max_states"], named.get("atoms", ())
        props = {p for f in formulas for p in formula_mod.props_of(f)}
        noms = {i for f in formulas for i in formula_mod.noms_of(f)}
        props |= {a.name for a in atoms if a.kind == "prop"}
        noms |= {a.name for a in atoms if a.kind == "nom"}
        if out is None:
            hit = None
        else:
            model = out[0] if isinstance(out, tuple) else getattr(out, "model", out)
            hit = len(model.states)
        frames = lanes = 0
        for k in range(1, (hit or bound + 1)):
            per_frame = (1 << (len(props) * k)) * k ** len(noms)
            frames += labeled_frames(frame, k)
            lanes += labeled_frames(frame, k) * per_frame
        if hit is not None:
            frames += 1
            lanes += 1
        tracer.count("oracle.frames", frames)
        tracer.count("oracle.lanes", lanes)

    return observe


def install(tracer: Tracer, extra_modules=()):
    """Wrap the traced functions and rebind every import of them."""
    import hylo.blocktree as blocktree
    import hylo.checker as checker
    import hylo.formula as formula
    import hylo.model as model
    import hylo.oracle as oracle
    import hylo.satellites as satellites
    import hylo.solver as solver
    import hylo.translate as translate

    plain = [
        (formula, n, None)
        for n in ("parse", "print_formula", "diamond_closure", "free_vars", "strip_free")
    ]
    plain += [(translate, n, _observe_translation) for n in _TRANSLATIONS]
    plain += [(checker, n, None) for n in ("eval_formula", "global_eval", "phi_type")]
    plain += [(blocktree, "verify", _observe_verify), (blocktree, "compute_types", None)]
    plain += [(blocktree, "realize", None)]
    plain += [(solver, n, _observe_solver) for n in ("sat_transitive", "sat_complete")]
    plain += [
        (model, n, None)
        for n in (
            "cliques", "is_transitive", "is_complete", "is_linear",
            "is_transitive_tree", "transitive_closure", "generated_submodel",
        )
    ]
    for name in SWEEP_NAMES:
        attr = name.split(".")[1]
        plain.append((oracle, attr, _observe_sweep(formula, getattr(oracle, attr))))
    plain += [(oracle, "brute_fo_sat", None), (satellites, "fo_eval", None)]

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hylo"]
    modules += list(extra_modules)

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for mod, attr, observe in plain:
        layer = mod.__name__.split(".")[1]
        original = getattr(mod, attr)
        rebind(original, tracer.wrap(f"{layer}.{attr}", original, observe))
    for attr in ("enumerate_models", "frames"):
        original = getattr(oracle, attr)
        rebind(original, tracer.wrap_generator(f"oracle.{attr}", original))

    # Constructors and methods live on the classes.
    model.HybridModel.__post_init__ = tracer.wrap(
        "model.HybridModel", model.HybridModel.__post_init__
    )
    blocktree.FiniteRep.__post_init__ = tracer.wrap(
        "blocktree.FiniteRep", blocktree.FiniteRep.__post_init__
    )
    for attr in ("successors", "predecessors"):
        setattr(model.HybridModel, attr, tracer.wrap(f"model.{attr}", getattr(model.HybridModel, attr)))


def layer_metrics(t: Tracer) -> dict:
    """Per-layer numbers, named as in BENCHMARK.json."""

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    verify_calls = t.calls("blocktree.verify")
    candidates = t.counters.get("solver.candidates", 0)
    eval_calls = t.calls(*CHECKER_NAMES)
    sweep_s = t.inclusive(*SWEEP_NAMES)
    return {
        "solver.candidates": candidates,
        "solver.candidates_per_s": rate(candidates, t.inclusive(*SOLVER_NAMES)),
        "solver.self_s": t.self_seconds("solver."),
        "blocktree.verify_calls": verify_calls,
        "blocktree.verify_us": rate(
            1e6 * sum(r[2] for (n, _), r in t.agg.items() if n == "blocktree.verify"), verify_calls
        ),
        "blocktree.compute_types_calls": t.calls("blocktree.compute_types"),
        "blocktree.rep_builds": t.calls("blocktree.FiniteRep"),
        "blocktree.accept_ratio": rate(t.counters.get("blocktree.accepted", 0), verify_calls),
        "blocktree.reject_mismatch": t.counters.get("blocktree.reject_mismatch", 0),
        "blocktree.reject_nostate": t.counters.get("blocktree.reject_nostate", 0),
        "formula.closure_calls": t.calls("formula.diamond_closure"),
        "formula.free_vars_calls": t.calls("formula.free_vars"),
        "formula.strip_free_calls": t.calls("formula.strip_free"),
        "formula.self_s": t.self_seconds("formula."),
        "formula.parse_s": t.inclusive("formula.parse"),
        "translate.calls": t.calls(*TRANSLATE_NAMES),
        "translate.self_s": t.self_seconds("translate."),
        "translate.output_nodes": t.counters.get("translate.output_nodes", 0),
        "checker.eval_calls": eval_calls,
        "checker.evals_per_s": rate(eval_calls, t.inclusive(*CHECKER_NAMES)),
        "checker.self_s": t.self_seconds("checker."),
        "model.models_built": t.calls("model.HybridModel"),
        "model.successors_calls": t.calls("model.successors", "model.predecessors"),
        "model.cliques_calls": t.calls("model.cliques"),
        "model.self_s": t.self_seconds("model."),
        "oracle.frames_per_s": rate(t.counters.get("oracle.frames", 0), sweep_s),
        "oracle.lanes_per_s": rate(t.counters.get("oracle.lanes", 0), sweep_s),
        "oracle.sweep_self_s": sum(
            r[2] for (n, _), r in t.agg.items() if n in SWEEP_NAMES
        ),
        "oracle.fo_search_calls": t.calls("oracle.brute_fo_sat"),
        "oracle.fo_search_s": t.inclusive("oracle.brute_fo_sat"),
        "oracle.models_per_s": rate(
            t.counters.get("oracle.enumerate_models.items", 0),
            t.inclusive("oracle.enumerate_models"),
        ),
        "satellites.fo_eval_calls": t.calls("satellites.fo_eval"),
        "satellites.fo_eval_self_s": t.self_seconds("satellites.fo_eval"),
        # Measured by the cli workload from outside the processes it starts.
        "cli.import_s": 0.0,
        **{f"cli.command_s.{c}": 0.0 for c in CLI_SUBCOMMANDS},
    }
