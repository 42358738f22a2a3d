"""Machines built from the transition tables: a tag names its root table,
``<tag>.tt``, and each table's ``uses`` line names its subsidiaries."""

from __future__ import annotations

import functools
import os
from importlib import resources
from pathlib import Path

from .diagnostics import TableError
from .machine import BUILTIN_CODECS, Machine
from .tables import parse_table, validate_table


def _tables(tables_dir: str | None):
    return resources.files("ctxesc") / "data" if tables_dir is None else Path(tables_dir)


def load_table(name: str, tables_dir: str | None = None):
    path = _tables(tables_dir) / name
    table, diags = parse_table(path.read_text(encoding="utf-8"),
                               filename=name if tables_dir is None else str(path))
    if table is not None:
        diags = validate_table(table)
    if diags:
        raise TableError("; ".join(str(d) for d in diags))
    return table


def machine_for_tag(tag: str, tables_dir: str | os.PathLike | None = None) -> Machine:
    """The machine of root table ``<tag>.tt`` with, once each, the tables that
    ``uses`` lines name, transitively, as subsidiaries (``uses Url``: ``url.tt``).
    One machine per (tag, tables_dir), however the arguments are passed, and
    one per directory whether it is named by a ``str`` or a path object."""
    return _machine(tag, None if tables_dir is None else os.fspath(tables_dir))


@functools.lru_cache(maxsize=None)
def _machine(tag: str, tables_dir: str | None) -> Machine:
    known = sorted(p.name[:-3] for p in _tables(tables_dir).iterdir() if p.name.endswith(".tt"))
    if tag not in known:
        raise KeyError(f"no machine registered for tag {tag!r} (known: {', '.join(known)})")
    subs = {}

    def load_uses(table, path):
        # validate_table checks that `uses` names each machine a row starts
        for rule in table.rules:
            at, action = f"{table.filename}:{rule.line}", rule.action
            if action and action.kind == "start" and action.codec not in BUILTIN_CODECS:
                raise TableError(f"{at}: unknown codec {action.codec!r}")
            if rule.events and len(path) > 1:
                raise TableError(f"{at}: subsidiary machines may not emit marks")
        for name in table.uses:
            stem = name.lower()
            if stem in path:
                cycle = " -> ".join((*path, stem))
                raise TableError(f"{table.filename}: 'uses {name}' makes a cycle: {cycle}")
            if stem not in known:
                raise TableError(f"{table.filename}: 'uses {name}' names no table {stem}.tt")
            if name not in subs:
                subs[name] = load_table(f"{stem}.tt", tables_dir)
                load_uses(subs[name], (*path, stem))

    root = load_table(f"{tag}.tt", tables_dir)
    load_uses(root, (tag,))
    return Machine(root, subs)


def html_machine(tables_dir: str | None = None) -> Machine:  # kept for its callers
    return machine_for_tag("html", tables_dir)


html_machine.cache_clear = _machine.cache_clear
