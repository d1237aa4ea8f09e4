"""Command-line front end.

Exit codes: 0 success, 1 validation/semantic errors, 2 usage or parse
errors, 3 internal errors. Diagnostics go to stderr; artifacts go to
stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dot, dsl, sim, uml
from .errors import TmError
from .model import validate_static
from .events import check_behavior

OK, SEMANTIC, USAGE, INTERNAL = 0, 1, 2, 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return USAGE
    except TmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm", description="Thinging-machine modeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a .tm file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fmt", help="print the canonical form of a .tm file")
    p.add_argument("file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("to-class", help="convert a .tm file to class JSON")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_to_class)

    p = sub.add_parser("to-tm", help="convert class JSON to a .tm file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_to_tm)

    p = sub.add_parser("simulate", help="run the behavioral model")
    p.add_argument("file")
    p.add_argument("--world", action="append", default=[], metavar="PATH=V",
                   help="initial store fill, repeatable")
    p.add_argument("--input", action="append", default=[],
                   metavar="EVENT:PAYLOAD", help="event payload, repeatable")
    p.add_argument("--max-steps", type=int, default=sim.DEFAULT_MAX_STEPS)
    p.add_argument("--trace-format", choices=("text", "json"),
                   default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dot", help="emit DOT graph text")
    p.add_argument("file")
    p.add_argument("--target", choices=("static", "behavior"),
                   default="static")
    p.add_argument("--rankdir", choices=("LR", "TB"), default="LR")
    p.add_argument("--show-stores", action="store_true")
    p.set_defaults(func=cmd_dot)
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse(path: str):
    return dsl.parse(dsl.SourceUnit(_read(path), path))


def _write_out(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def cmd_check(args) -> int:
    static, events, behavior = _parse(args.file)
    report = validate_static(static)
    if behavior is not None:
        report.diagnostics.extend(
            check_behavior(behavior, static).diagnostics)
    for diag in report.diagnostics:
        print(f"{diag.severity}\t{diag.location}\t{diag.message}")
    return OK if report.ok else SEMANTIC


def cmd_fmt(args) -> int:
    static, events, behavior = _parse(args.file)
    sys.stdout.write(dsl.print_text(static, events, behavior))
    return OK


def cmd_to_class(args) -> int:
    static, _, _ = _parse(args.file)
    _write_out(uml.write_class_json(uml.tm_to_class(static)), args.out)
    return OK


def cmd_to_tm(args) -> int:
    cm = uml.read_class_json(_read(args.file))
    _write_out(dsl.print_text(uml.class_to_tm(cm)), args.out)
    return OK


def cmd_simulate(args) -> int:
    static, events, behavior = _parse(args.file)
    if behavior is None:
        print("error: file declares no behavioral model", file=sys.stderr)
        return SEMANTIC
    fills = {}
    for raw in args.world:
        path, _, value = raw.partition("=")
        if not _:
            print(f"error: bad --world value {raw!r}", file=sys.stderr)
            return USAGE
        fills[path] = _parse_value(value)
    inputs = {}
    for raw in args.input:
        event, _, payload = raw.partition(":")
        if not _:
            print(f"error: bad --input value {raw!r}", file=sys.stderr)
            return USAGE
        inputs[event] = _parse_value(payload)
    world = sim.init_world(static, fills)
    trace = sim.simulate(static, behavior, world, inputs, args.max_steps)
    if args.trace_format == "json":
        sys.stdout.write(sim.trace_to_json(trace))
    else:
        sys.stdout.write(sim.trace_to_text(trace))
    if trace.outcome != "Completed":
        print(trace.outcome, file=sys.stderr)
        return SEMANTIC
    return OK


def cmd_dot(args) -> int:
    static, events, behavior = _parse(args.file)
    opts = dot.RenderOptions(args.target, args.show_stores, args.rankdir)
    if args.target == "behavior":
        if behavior is None:
            print("error: file declares no behavioral model",
                  file=sys.stderr)
            return SEMANTIC
        sys.stdout.write(dot.emit_dot(behavior, opts))
    else:
        sys.stdout.write(dot.emit_dot(static, opts))
    return OK


if __name__ == "__main__":
    sys.exit(main())
