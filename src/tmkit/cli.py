"""Command-line front end.

Exit codes: 0 success, 1 validation/semantic errors, 2 usage or parse
errors, 3 internal errors. Diagnostics go to stderr; artifacts go to
stdout unless --out is given.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import dsl
from .errors import TmError
from .model import validate_static
from .events import build_behavior, check_behavior

OK, SEMANTIC, USAGE, INTERNAL = 0, 1, 2, 3
_HELP = ("-h", "--help")


class Usage(Exception):
    """A command line that runs no command. Its args are the command,
    None for `tm` itself, and what is wrong, None for a help request."""


def main(argv=None) -> int:
    """Run one `tm` command line; return its exit code.

    The command runs with the cyclic garbage collector off, and the
    caller's setting is restored on every way out. No command leaves
    cyclic garbage that grows with its input: its models and traces are
    freed by reference counting, so a collection would only walk live
    objects.
    """
    try:
        run, args = parse_args(sys.argv[1:] if argv is None else argv)
    except Usage as exc:
        command, message = exc.args
        if message is None:
            sys.stdout.write(_help(command))
            return OK
        prog = "tm" if command is None else f"tm {command}"
        print(_help(command).partition("\n")[0],
              f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        return USAGE
    was = gc.isenabled()
    gc.disable()
    try:
        return run(args)
    except dsl.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except OSError as exc:  # a file we cannot open, or a closed stdout
        what = ("write output" if exc.filename is None
                else f"open {exc.filename}")
        print(f"cannot {what}: {exc.strerror}", file=sys.stderr)
        return USAGE
    except UnicodeDecodeError as exc:
        print(f"cannot read {args.file}: not UTF-8 text "
              f"(byte {exc.start})", file=sys.stderr)
        return USAGE
    except TmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEMANTIC
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    finally:
        if was:
            gc.enable()


def parse_args(argv):
    """Scan `argv` once; return the handler of its command and a namespace
    of the `file` and the options, each at its default unless given.
    Raise `Usage` for `-h`/`--help` and for a malformed command line."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        if argv and _match(None, name, _HELP):
            raise Usage(None, None)
        raise Usage(None, f"argument command: invalid choice: {name!r} "
                    f"(choose from {_choices(_COMMANDS)})" if argv
                    else "the following arguments are required: command")
    run, _, options = _COMMANDS[name]
    names = (*_HELP, *options)
    args = {opt[2:].replace("-", "_"): kind[0] if isinstance(kind, tuple)
            else None if kind in (str, int) else kind()
            for opt, (kind, _, _) in options.items()}
    files, items = [], iter(argv[1:])
    for item in items:
        if item == "--":
            files += items
            continue
        if not _is_option(item):
            files.append(item)
            continue
        opt, given, value = item.partition("=")
        opt = _match(name, opt, names)
        if opt is None:
            raise Usage(name, f"unrecognized arguments: {item}")
        if opt in _HELP:
            raise Usage(name, None)
        kind = options[opt][0]
        if kind is bool:
            if given:
                raise Usage(name, f"argument {opt}: ignored explicit "
                            f"argument {value!r}")
            value = True
        elif not given:
            value = next(items, None)
            if value is None or _is_option(value):
                raise Usage(name, f"argument {opt}: expected one argument")
        if isinstance(kind, tuple) and value not in kind:
            raise Usage(name, f"argument {opt}: invalid choice: {value!r} "
                        f"(choose from {_choices(kind)})")
        if kind is int and _int(value) < 1:
            raise Usage(name, f"argument {opt}: expected an integer of at "
                        f"least 1, got {value!r}")
        key = opt[2:].replace("-", "_")
        if kind is list:
            args[key].append(value)
        else:
            args[key] = _int(value) if kind is int else value
    if len(files) != 1:
        raise Usage(name, "unrecognized arguments: " + " ".join(files[1:])
                    if files else "the following arguments are required: "
                    "file")
    return run, SimpleNamespace(file=files[0], **args)


def _is_option(item: str) -> bool:
    """Whether `item` reads as an option, not as `-` or a negative number."""
    return item[:1] == "-" and item[1:2] not in "0123456789."


def _match(command, opt: str, names):
    """The one of `names` that `opt` is, or that the long option `opt` is
    a prefix of; None if there is none."""
    if opt in names:
        return opt
    found = [name for name in names
             if len(opt) > 2 and opt[:2] == "--" and name.startswith(opt)]
    if len(found) > 1:
        raise Usage(command, f"ambiguous option: {opt} could match "
                    f"{', '.join(found)}")
    return found[0] if found else None


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        return 0


def _choices(names) -> str:
    return ", ".join(map(repr, names))


def _help(command) -> str:
    """The help text of `tm command`, or of `tm` for None; its first line
    is the usage line."""
    if command is None:
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
        usage = f"[-h] {{{','.join(_COMMANDS)}}} ..."
    else:
        options = _COMMANDS[command][2]
        rows = [(f"{opt} {{{','.join(kind)}}}" if isinstance(kind, tuple)
                 else f"{opt} {metavar}" if metavar else opt, text)
                for opt, (kind, metavar, text) in options.items()]
        usage = " ".join([command, "[-h]",
                          *(f"[{left}]" for left, _ in rows), "file"])
    rows.insert(0, ("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    return f"usage: tm {usage}\n\n" + "".join(
        f"  {left:<{width}}  {text}\n" for left, text in rows)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse(path: str):
    return dsl.parse(_read(path))


def _write_out(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _parse_value(flag: str, key: str, raw: str):
    """The JSON value `raw` holds, or `raw` itself if it is not JSON."""
    import json
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
    except (ValueError, RecursionError) as exc:  # too long or too deep
        raise TmError(
            f"cannot read the --{flag} value of '{key}' ({exc})") from None


def cmd_check(args) -> int:
    static, events, behavior = _parse(args.file)
    report = validate_static(static)
    report.diagnostics.extend(check_behavior(
        behavior or build_behavior(events, ()), static).diagnostics)
    for diag in report.diagnostics:
        print(f"{diag.severity}\t{diag.location}\t{diag.message}")
    return OK if report.ok else SEMANTIC


def cmd_fmt(args) -> int:
    static, events, behavior = _parse(args.file)
    sys.stdout.write(dsl.print_text(static, events, behavior))
    return OK


def cmd_to_class(args) -> int:
    from . import uml
    static, _, _ = _parse(args.file)
    _write_out(uml.write_class_json(uml.tm_to_class(static)), args.out)
    return OK


def cmd_to_tm(args) -> int:
    from . import uml
    cm = uml.read_class_json(_read(args.file))
    _write_out(dsl.print_text(uml.class_to_tm(cm)), args.out)
    return OK


def cmd_simulate(args) -> int:
    from . import sim
    static, events, behavior = _parse(args.file)
    if behavior is None:
        raise TmError("file declares no behavioral model")
    fills, inputs = {}, {}
    for flag, sep, table in (("world", "=", fills), ("input", ":", inputs)):
        for raw in getattr(args, flag):
            key, found, value = raw.partition(sep)
            if not found:
                print(f"error: bad --{flag} value {raw!r}", file=sys.stderr)
                return USAGE
            table[key] = _parse_value(flag, key, value)
    world = sim.init_world(static, fills)
    trace = sim.simulate(static, behavior, world, inputs,
                         args.max_steps or sim.DEFAULT_MAX_STEPS)
    if args.trace_format == "json":
        sys.stdout.write(sim.trace_to_json(trace))
    else:
        sys.stdout.write(sim.trace_to_text(trace))
    if trace.outcome != "Completed":
        print(trace.outcome, file=sys.stderr)
        return SEMANTIC
    return OK


def cmd_dot(args) -> int:
    from . import dot
    static, events, behavior = _parse(args.file)
    drawn = behavior if args.target == "behavior" else static
    if drawn is None:
        raise TmError("file declares no behavioral model")
    sys.stdout.write(dot.emit_dot(drawn, dot.RenderOptions(
        args.target, args.show_stores, args.rankdir)))
    return OK


_OUT = {"--out": (str, "PATH", "write to PATH instead of stdout")}

#: command -> (handler, summary, options); each option maps to (kind,
#: metavar, help), where the kind is bool (a flag), a tuple of choices
#: (the first is the default), list (repeatable), str (one value) or int
#: (a positive integer)
_COMMANDS = {
    "check": (cmd_check, "validate a .tm file", {}),
    "fmt": (cmd_fmt, "print the canonical form of a .tm file", {}),
    "to-class": (cmd_to_class, "convert a .tm file to class JSON", _OUT),
    "to-tm": (cmd_to_tm, "convert class JSON to a .tm file", _OUT),
    "simulate": (cmd_simulate, "run the behavioral model", {
        "--world": (list, "PATH=V", "initial store fill, repeatable"),
        "--input": (list, "EVENT:PAYLOAD", "event payload, repeatable"),
        "--max-steps": (int, "N", "stop after N steps"),
        "--trace-format": (("text", "json"), None, "trace format"),
    }),
    "dot": (cmd_dot, "emit DOT graph text", {
        "--target": (("static", "behavior"), None, "model to draw"),
        "--rankdir": (("LR", "TB"), None, "graph direction"),
        "--show-stores": (bool, None, "draw the stores"),
    }),
}


if __name__ == "__main__":
    sys.exit(main())
