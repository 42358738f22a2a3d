import pytest

from ctxesc.frontend import desugar, parse_template
from ctxesc.runtime import Bindings, render_full
from ctxesc.web import html_machine, machine_for_tag

LIST_TEMPLATE = """tag: html
"<ul>
:for item of items {
"  <li><a href=${item.url}>${item.label}</a></li>
:}
"</ul>
"""

MESSAGE_TEMPLATE = """tag: html
"<p><message i18n="@@s-has-n">String '${s}' has ${n} characters.</message></p>
"""

TWO_ATTR_TEMPLATE = """tag: html
"<a href=${x} other-attr=${y}>
"""


@pytest.fixture(scope="session")
def html():
    return html_machine()


@pytest.fixture(scope="session")
def plain():
    return machine_for_tag("text")


def program_of(source, filename="<template>"):
    ir, diags = parse_template(source, filename)
    assert ir is not None, [str(d) for d in diags]
    return desugar(ir)


def render_text(source, bindings, machine):
    value, marks, diags = render_full(program_of(source), Bindings(bindings), machine)
    return value.text, marks, diags
