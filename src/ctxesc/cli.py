"""Command-line front end: check, compile, render, and extract.

Diagnostics print as ``file:line:col: severity: message`` on stderr. Exit
codes: 0 = no errors (warnings allowed unless --strict), 1 = errors,
2 = usage or IO failure.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import (
    CompositionError,
    PlanError,
    RenderError,
    Severity,
    TableError,
)
from .plan import Bindings, execute_plan, plan_from_json

# The template commands import compiler, runtime and i18n when they run:
# rendering a compiled plan needs none of them, nor the machine and tables
# they load.

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_USAGE = 2


def _print_diags(diags, strict: bool) -> int:
    worst = EXIT_OK
    for d in diags:
        severity = d.severity
        if strict and severity is Severity.WARNING:
            severity = Severity.ERROR
        print(f"{d.position}: {severity.value}: {d.message}", file=sys.stderr)
        if severity is Severity.ERROR:
            worst = EXIT_ERRORS
    return worst


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")


class SystemExit2(Exception):
    """Usage or IO failure; maps to exit code 2."""


def _analyze(source: str, path: str, args):
    """The compile pipeline up to propagation, diagnostics printed. Returns
    (annotated | None, exit code); no annotation (the template does not
    parse or names no machine) means exit 2."""
    from . import compiler

    _, annotated, diags = compiler.analyze_template(source, path, args.tables)
    code = _print_diags(diags, args.strict)
    return annotated, EXIT_USAGE if annotated is None else code


def cmd_check(args) -> int:
    return _analyze(_read(args.template), args.template, args)[1]


def cmd_compile(args) -> int:
    from . import compiler

    annotated, code = _analyze(_read(args.template), args.template, args)
    if code != EXIT_OK:
        return code
    payload = compiler.erase(annotated).to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


def _write(text: str) -> int:
    """Write ``text`` to stdout whole or not at all: text stdout cannot
    encode (a lone surrogate) is exit 1, reported with the code point and
    its offset in the output."""
    encoding = sys.stdout.encoding or "utf-8"
    try:
        text.encode(encoding, sys.stdout.errors or "strict")
    except UnicodeEncodeError as exc:
        print(f"ctxesc: error: output offset {exc.start}: U+{ord(text[exc.start]):04X} "
              f"cannot be encoded as {encoding}", file=sys.stderr)
        return EXIT_ERRORS
    sys.stdout.write(text)
    return EXIT_OK


def _render_dynamic(source: str, path: str, bindings: Bindings, args):
    """The reference engine on a template, diagnostics printed. Returns
    (value, marks, exit code); no machine (the template does not parse or
    names no machine) means exit 2."""
    from . import compiler, runtime

    program, machine, diags = compiler.load_template(source, path, args.tables)
    if machine is None:
        _print_diags(diags, args.strict)
        return None, (), EXIT_USAGE
    value, marks, render_diags = runtime.render_full(program, bindings, machine)
    return value, marks, _print_diags(diags + render_diags, args.strict)


def cmd_render(args) -> int:
    source = _read(args.input)
    bindings = Bindings.from_json(_read(args.bindings))
    if source.lstrip().startswith("{"):  # a compiled plan, not a template
        if args.mode == "dynamic":
            raise SystemExit2("dynamic mode needs a template, not a compiled plan")
        value, _ = execute_plan(plan_from_json(source), bindings)
        return _write(value.text)
    if args.mode == "static":
        from . import compiler

        annotated, code = _analyze(source, args.input, args)
        if code != EXIT_OK:
            return code
        value, _ = execute_plan(compiler.erase(annotated), bindings)
        return _write(value.text)
    # the reference engine reports its own diagnostics, so it runs on the
    # program without propagation
    value, _, code = _render_dynamic(source, args.input, bindings, args)
    return code if code != EXIT_OK else _write(value.text)


def cmd_extract(args) -> int:
    from . import i18n

    source = _read(args.template)
    bindings = Bindings.from_json(_read(args.bindings))
    value, marks, code = _render_dynamic(source, args.template, bindings, args)
    if code != EXIT_OK:
        return code
    sys.stdout.write(i18n.bundle_to_json(i18n.extract_messages(value.text, marks)))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors")
    p.add_argument("--tables", metavar="DIR", default=None,
                   help="load transition table data files from DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxesc",
        description="Contextual autoescaping template compiler and renderer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and analyze a template; print diagnostics")
    p.add_argument("template")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="compile a template to a plan JSON document")
    p.add_argument("template")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the plan here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("render", help="render a template or compiled plan with bindings")
    p.add_argument("input", help="template file or compiled plan JSON")
    p.add_argument("--bindings", required=True, metavar="PATH")
    p.add_argument("--mode", choices=("static", "dynamic"), default="static",
                   help="static executes a compiled plan; dynamic runs the context machine")
    _add_common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("extract", help="extract the translatable message bundle")
    p.add_argument("template")
    p.add_argument("--bindings", required=True, metavar="PATH")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"ctxesc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RenderError as exc:
        pos = f"{exc.position}: " if exc.position else ""
        print(f"{pos}error: {exc.message}", file=sys.stderr)
        return EXIT_ERRORS
    except (TableError, PlanError) as exc:
        # bad table data or a malformed plan input file
        print(f"ctxesc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CompositionError as exc:
        print(f"ctxesc: error: {exc}", file=sys.stderr)
        return EXIT_ERRORS
    except (OSError, ValueError) as exc:
        print(f"ctxesc: {exc}", file=sys.stderr)
        return EXIT_USAGE
