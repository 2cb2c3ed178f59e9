"""Command-line front end.

Exit codes: 0 = SAT / true / found, 1 = UNSAT / false / not found,
2 = UNKNOWN, 64 = usage error, 65 = parse or input error, 70 = internal.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each command imports the modules it runs, so a command never pays for the
# ones it does not (numpy comes only with the oracle).
from .formula import Until, fragment_of, parse, print_formula

EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low, kind):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {value}")
        return value

    return convert


_POSITIVE = _int_at_least(1, "positive")
_NON_NEGATIVE = _int_at_least(0, "non-negative")


def _build_parser():
    top = _Parser(prog="hylo", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo canonical form and fragment label")
    p.add_argument("--formula", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--assign", action="append", default=[], metavar="$x=STATE")

    p = sub.add_parser("sat", help="satisfiability over transitive or complete frames")
    p.add_argument("--frame", choices=["trans", "complete"], required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-clique", type=_POSITIVE, default=4)
    p.add_argument("--max-nodes", type=_POSITIVE, default=8)
    p.add_argument("--max-c", type=_NON_NEGATIVE, default=4)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="search exactly the conservative completeness bounds, "
        "in place of the --max-* limits",
    )
    p.add_argument("--witness", default="witness.json")

    p = sub.add_parser("oracle", help="brute-force model search")
    p.add_argument(
        "--frame",
        choices=["any", "trans", "transitive", "complete", "transitive-tree", "linear"],
        required=True,
    )
    p.add_argument("--max-states", type=_POSITIVE, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--fo")
    p.add_argument(
        "--jobs", type=_POSITIVE, default=1, help="selects nothing: the sweep runs in one process (--formula only)"
    )

    p = sub.add_parser("translate", help="apply a translation rule")
    p.add_argument("--rule", required=True, choices=sorted(_TRANSLATIONS))
    p.add_argument("--formula")
    p.add_argument("--fo")
    p.add_argument("--sigma", help="comma-separated alphabet for the string rule")
    p.add_argument("--lfp", action="store_true", help="print closure atoms in fixed-point form")

    p = sub.add_parser("realize", help="expand a representation file")
    p.add_argument("--rep", required=True)
    p.add_argument("--depth", type=_NON_NEGATIVE, required=True)
    p.add_argument("--out")

    return top


def _parse_assignments(items):
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"bad assignment {item!r}, expected $x=STATE")
        var, state = item.split("=", 1)
        out[var.lstrip("$")] = state
    return out


def _cmd_parse(args):
    f = parse(args.formula)
    print(print_formula(f))
    print(f"fragment: {fragment_of(f)}")
    return 0


def _cmd_check(args):
    from . import checker, model

    m = model.load_model(args.model)
    f = parse(args.formula)
    g = _parse_assignments(args.assign)
    value = checker.eval_formula(m, g, args.state, f)
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_sat(args):
    from . import blocktree, solver

    phi = parse(args.formula)
    if args.exhaustive:
        nodes, clique, c = solver.bounds_for(phi)
        budget = solver.Budget(clique, nodes, c)
    else:
        budget = solver.Budget(args.max_clique, args.max_nodes, args.max_c)
    run = solver.sat_transitive if args.frame == "trans" else solver.sat_complete
    result = run(phi, budget)
    if result.nominal_warning:
        print("WARN: nominals recoded as propositional atoms", file=sys.stderr)
    if result.status == "sat":
        blocktree.save_rep(result.witness_rep, args.witness)
        guess = {
            c: sorted(print_formula(chi) for chi in t)
            for c, t in result.witness_guess.items()
        }
        print(f"SAT (witness written to {args.witness})")
        print(json.dumps({"guess": guess}))
        return 0
    print(result.status.upper())
    if result.note:
        print(result.note)
    return 1 if result.status == "unsat" else 2


def _oracle_frame(name):
    return "transitive" if name == "trans" else name


def _cmd_oracle(args):
    from . import model, oracle
    from .satellites import parse_fo

    frame = _oracle_frame(args.frame)
    if args.fo is not None:
        alpha = parse_fo(args.fo)
        found = oracle.brute_fo_sat(alpha, frame, args.max_states)
        if found is None:
            print(f"not found within bound {args.max_states}")
            return 1
        doc = {
            "domain": list(found.structure.domain),
            "rel": sorted([a, b] for a, b in found.structure.binrel),
            "unary": {p: sorted(v) for p, v in sorted(found.structure.unary.items())},
            "constants": dict(sorted(found.structure.constants.items())),
        }
        print(json.dumps(doc))
        return 0
    found = oracle.brute_sat(parse(args.formula), frame, args.max_states)
    if found is None:
        print(f"not found within bound {args.max_states}")
        return 1
    print(json.dumps({"model": model.model_to_dict(found.model), "state": found.state}))
    return 0


def _until_parts(phi, args):
    if not isinstance(phi, Until):
        raise ValueError(f"rule {args.rule} expects a formula of the form U(f, g)")
    return phi.left, phi.right


def _sigma(args):
    if not args.sigma:
        raise ValueError("rule string needs --sigma")
    return [s.strip() for s in args.sigma.split(",") if s.strip()]


def _show_hl(f, args):
    return print_formula(f)


def _show_fo(alpha, args):
    from .satellites import fo_to_text

    return fo_to_text(alpha, rplus_as_lfp=args.lfp)


def _show_pdl(p, args):
    from .satellites import pdl_to_text

    return pdl_to_text(p)


def _rule(name, operands=lambda f, a: (f,)):
    """The translation that applies hylo.translate.<name> to the operands
    drawn from the parsed input and the command's arguments.  It looks the
    function up when it runs, so a wrapped (traced) function is the one
    called."""

    def run(source, args):
        from . import translate

        return getattr(translate, name)(*operands(source, args))

    return run


# rule -> (input option, translation, printer).  Translations and printers
# take the parsed input or the result, and the command's arguments.
_TRANSLATIONS = {
    "until-down": ("formula", _rule("until_via_down", _until_parts), _show_hl),
    "until-down-tense": ("formula", _rule("until_via_down_tense", _until_parts), _show_hl),
    "ml-until": ("formula", _rule("ml_to_until"), _show_hl),
    "globsat": ("formula", _rule("globsat_reduction"), _show_hl),
    "u-upp": ("formula", _rule("u_to_upp"), _show_hl),
    "upp-u": ("formula", _rule("upp_to_u"), _show_hl),
    "st": ("formula", _rule("standard_translation"), _show_fo),
    "ht": ("fo", _rule("ht"), _show_hl),
    "complete": ("fo", _rule("complete_reduction"), _show_hl),
    "zigzag": ("fo", _rule("zigzag"), _show_fo),
    "spy-at": ("fo", _rule("spy_at"), _show_hl),
    "spy-fp": ("fo", _rule("spy_fp"), _show_hl),
    "tt-nat-tense": ("formula", _rule("tt_to_nat_tense"), _show_hl),
    "tt-nat-at": ("formula", _rule("tt_to_nat_at"), _show_hl),
    "at-elim-linear": ("formula", _rule("at_elim_linear"), _show_hl),
    "string": ("fo", _rule("string_reduction", lambda f, a: (f, _sigma(a))), _show_hl),
    "e-at": ("formula", _rule("exists_to_at"), _show_hl),
    "pdl": ("formula", _rule("pdl_reduction"), _show_pdl),
    "pdl-flat": ("formula", _rule("pdl_reduction_flat"), _show_pdl),
}


def _cmd_translate(args):
    from .satellites import parse_fo

    kind, run, show = _TRANSLATIONS[args.rule]
    text = getattr(args, kind)
    if text is None:
        raise ValueError(f"rule {args.rule} needs --{kind}")
    source = parse(text) if kind == "formula" else parse_fo(text)
    print(show(run(source, args), args))
    return 0


def _cmd_realize(args):
    from . import blocktree, model

    rep = blocktree.load_rep(args.rep)
    m = blocktree.realize(rep, args.depth)
    if args.out:
        model.save_model(m, args.out)
        print(f"model written to {args.out}")
    else:
        print(json.dumps(model.model_to_dict(m)))
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "sat": _cmd_sat,
    "oracle": _cmd_oracle,
    "translate": _cmd_translate,
    "realize": _cmd_realize,
}


def _run(args):
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # parse, fragment and input errors
        print(f"hylo: {exc}", file=sys.stderr)
        return EX_DATA
    except Exception as exc:  # exit 1 would read as UNSAT / false
        print(f"hylo: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and args.fo is not None and args.jobs > 1:
        parser.error("argument --jobs: not allowed with argument --fo")
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
