"""Shipped machines for the web stack: HTML with URL and CSS subsidiaries,
plus a no-op plain-text machine."""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

from .diagnostics import Severity, TableError
from .machine import Machine, build_machine
from .tables import parse_table, validate_table


def _read_table_text(name: str, tables_dir: str | None) -> tuple[str, str]:
    if tables_dir is not None:
        path = Path(tables_dir) / name
        return path.read_text(encoding="utf-8"), str(path)
    data = resources.files("ctxesc").joinpath("data").joinpath(name)
    return data.read_text(encoding="utf-8"), name


def load_table(name: str, tables_dir: str | None = None):
    text, filename = _read_table_text(name, tables_dir)
    table, diags = parse_table(text, filename=filename)
    if table is None:
        raise TableError("; ".join(str(d) for d in diags))
    problems = [d for d in validate_table(table) if d.severity is Severity.ERROR]
    if problems:
        raise TableError("; ".join(str(d) for d in problems))
    return table


@functools.lru_cache(maxsize=None)
def html_machine(tables_dir: str | None = None) -> Machine:
    """The HTML machine with its URL and CSS subsidiary automata."""
    root = load_table("html.tt", tables_dir)
    subs = {
        "Url": load_table("url.tt", tables_dir),
        "Css": load_table("css.tt", tables_dir),
    }
    return build_machine(root, subs)


@functools.lru_cache(maxsize=None)
def plain_text_machine(tables_dir: str | None = None) -> Machine:
    """Identity machine: copies fixed text and stringifies values verbatim."""
    return build_machine(load_table("text.tt", tables_dir))


def machine_for_tag(tag: str, tables_dir: str | None = None) -> Machine:
    if tag == "html":
        return html_machine(tables_dir)
    if tag == "text":
        return plain_text_machine(tables_dir)
    raise KeyError(f"no machine registered for tag {tag!r} (known: html, text)")
