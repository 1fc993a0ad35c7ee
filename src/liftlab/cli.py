"""Batch driver: parse, analyse, lift, evaluate, report.

Exit codes: 0 on success, 1 on parse/validation/evaluation errors and on
programs nested too deeply for the recursive stages, 2 on usage errors.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .analysis import split_groups
from .lifter import Decision, LiftConfig, LiftError, lift_program
from .machine import (
    DEFAULT_FUEL,
    EvalError,
    SubsetTooLarge,
    enumerate_lift_subsets,
    evaluate,
    minimal_subset,
    render_value,
)
from .skeleton import skeleton_sexpr, skeletonize
from .syntax import (
    INF,
    ParseError,
    Program,
    ScopeError,
    freshen,
    parse,
    print_program,
    validate,
)


class InputError(Exception):
    pass


def _load(path: str) -> Program:
    """parse -> freshen -> validate -> split_groups."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    p = freshen(parse(text))
    violations = validate(p)
    if violations:
        lines = [f"{v.path}: {v.tag} {v.detail}" for v in violations]
        raise InputError("invalid program:\n  " + "\n  ".join(lines))
    return split_groups(p)


def _config(args: argparse.Namespace) -> LiftConfig:
    return LiftConfig(
        max_arity_nonrec=args.max_arity_nonrec,
        max_arity_rec=args.max_arity_rec,
        check_closure_growth=not args.no_closure_growth,
        allow_unknown_calls=args.allow_unknown_calls,
        allow_arg_occurrences=args.allow_arg_occurrences,
    )


def _growth_json(g):
    if g is None:
        return None
    if g == INF:
        return "inf"
    return int(g)


def _decision_json(d: Decision) -> dict:
    return {
        "site": d.site,
        "binders": list(d.binders),
        "lifted": d.lifted,
        "reason": d.reason,
        "criterion": d.criterion,
        "required_set": list(d.required_set),
        "predicted_net_words": _growth_json(d.predicted_net_words),
        "offending_var": d.offending_var,
        "resulting_arity": d.resulting_arity,
    }


def _stats_json(value, stats) -> dict:
    return {
        "value": render_value(value),
        "words_allocated": stats.words_allocated,
        "closures_allocated": stats.closures_allocated,
        "steps": stats.steps,
        "per_binder": {
            name: {"allocations": s.allocations, "entries": s.entries, "words": s.words}
            for name, s in sorted(stats.per_binder.items())
        },
    }


def _decision_text(d: Decision) -> str:
    rqs = "{" + ",".join(d.required_set) + "}"
    if d.lifted:
        note = "forced" if d.reason == "Forced" else f"predicted={_fmt_growth(d.predicted_net_words)}"
        return f"  {d.site}: lifted required={rqs} {note}"
    bits = [f"  {d.site}: kept {d.reason}({d.criterion})"]
    if d.reason == "ClosureGrowth":
        bits.append(f"predicted={_fmt_growth(d.predicted_net_words)}")
    if d.offending_var is not None:
        bits.append(f"var={d.offending_var}")
    if d.resulting_arity is not None:
        bits.append(f"arity={d.resulting_arity}")
    return " ".join(bits)


def _fmt_growth(g) -> str:
    if g is None:
        return "-"
    return "inf" if g == INF else str(int(g))


def cmd_lift(args: argparse.Namespace) -> int:
    program = _load(args.file)
    cfg = _config(args)
    lifted, decisions = lift_program(program, cfg)
    report: dict = {
        "input": args.file,
        "config": {**dataclasses.asdict(cfg), "fuel": args.fuel},
        "decisions": [_decision_json(d) for d in decisions],
        "eval": None,
    }
    if args.eval:
        value_before, stats_before = evaluate(program, args.fuel)
        value_after, stats_after = evaluate(lifted, args.fuel)
        report["eval"] = {
            "before": _stats_json(value_before, stats_before),
            "after": _stats_json(value_after, stats_after),
            "delta_words": stats_after.words_allocated - stats_before.words_allocated,
            "agreement": render_value(value_before) == render_value(value_after),
        }
    if args.report == "json":
        print(json.dumps(report, indent=2))
        return 0
    print(f"input: {report['input']}")
    cfg_bits = " ".join(f"{k}={v}" for k, v in report["config"].items())
    print(f"config: {cfg_bits}")
    print("decisions:")
    if decisions:
        for d in decisions:
            print(_decision_text(d))
    else:
        print("  (no let bindings)")
    if report["eval"] is not None:
        ev = report["eval"]
        for label in ("before", "after"):
            s = ev[label]
            print(
                f"{label}: value={s['value']} words={s['words_allocated']} "
                f"closures={s['closures_allocated']} steps={s['steps']}"
            )
        print(f"delta_words: {ev['delta_words']}")
        print(f"agreement: {'yes' if ev['agreement'] else 'no'}")
    return 0


def cmd_dump_lifted(args: argparse.Namespace) -> int:
    program = _load(args.file)
    lifted, _ = lift_program(program, _config(args))
    sys.stdout.write(print_program(lifted))
    return 0


def cmd_dump_skeleton(args: argparse.Namespace) -> int:
    program = _load(args.file)
    tops = program.top_names()
    for tb in program.top_binds:
        print(f"{tb.name}: {skeleton_sexpr(skeletonize(tb.body, tops))}")
    print(f"main: {skeleton_sexpr(skeletonize(program.main, tops))}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    program = _load(args.file)
    rows = enumerate_lift_subsets(program, fuel=args.fuel, max_groups=args.max_groups)
    print("subset\twords\tclosures\tvalue")
    for row in rows:
        label = ",".join(row.subset) if row.subset else "(none)"
        print(f"{label}\t{row.words}\t{row.closures}\t{row.value}")
    best = minimal_subset(rows)
    print(f"minimal: {','.join(best.subset) if best.subset else '(none)'}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_lift_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-arity-nonrec", type=_positive_int, default=5, metavar="N")
    sp.add_argument("--max-arity-rec", type=_positive_int, default=5, metavar="N")
    sp.add_argument("--no-closure-growth", action="store_true")
    sp.add_argument("--allow-unknown-calls", action="store_true")
    sp.add_argument("--allow-arg-occurrences", action="store_true")
    sp.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liftlab",
        description="Selective lambda lifting over a small ANF calculus",
    )
    ap.add_argument("--version", action="version", version=f"liftlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    lift = sub.add_parser("lift", help="decide and transform, then report")
    lift.add_argument("file")
    _add_lift_flags(lift)
    lift.add_argument("--eval", action="store_true", help="evaluate before and after")
    lift.add_argument("--report", choices=("text", "json"), default="text")
    lift.set_defaults(func=cmd_lift)

    dl = sub.add_parser("dump-lifted", help="print the transformed program")
    dl.add_argument("file")
    _add_lift_flags(dl)
    dl.set_defaults(func=cmd_dump_lifted)

    ds = sub.add_parser("dump-skeleton", help="print one skeleton per top-level body")
    ds.add_argument("file")
    ds.set_defaults(func=cmd_dump_skeleton)

    orc = sub.add_parser("oracle", help="measure every force-lift subset")
    orc.add_argument("file")
    orc.add_argument("--max-groups", type=_positive_int, default=4, metavar="N")
    orc.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL, metavar="N")
    orc.set_defaults(func=cmd_oracle)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ScopeError, InputError, LiftError, EvalError, SubsetTooLarge) as exc:
        print(f"liftlab: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # parse, freshen, validate and the printer recurse once per nesting
        # level; the recursion limit is left as it is.
        print(
            "liftlab: error: the program nests too deeply for this implementation "
            f"(Python recursion limit {sys.getrecursionlimit()} reached)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
