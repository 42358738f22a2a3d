import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import LIST_TEMPLATE
from ctxesc.diagnostics import PlanError, Position, Severity, error
from ctxesc.frontend import (
    MAX_BLOCK_DEPTH,
    PATH_RE,
    AppendFixed,
    AppendUnsafe,
    BranchBlock,
    Collected,
    LoopBlock,
    _content_nodes,
    desugar,
    parse_template,
)
from ctxesc.plan import plan_from_json
from support import STRUCTURE_CORPUS, nested_loops, random_template, walk

STORY = """tag: story
"I am the ${title} who loves to ${verb}!
:for item of items {
"${item}! Ha ha ha.
:}
"Brought to you by the number ${last}.
"""


def test_parse_story_template_structure():
    ir, diags = parse_template(STORY)
    assert diags == []
    assert ir.tag == "story"
    kinds = [type(n).__name__ for n in ir.body]
    assert kinds == ["AppendFixed", "AppendUnsafe", "AppendFixed", "AppendUnsafe",
                     "AppendFixed", "LoopBlock", "AppendFixed", "AppendUnsafe", "AppendFixed"]
    assert ir.body[0].text == "I am the "
    assert ir.body[1].path == "title"
    assert ir.body[4].text == "!\n"
    loop = ir.body[5]
    assert isinstance(loop, LoopBlock)
    assert (loop.var, loop.path) == ("item", "items")
    assert isinstance(loop.body[0], AppendUnsafe) and loop.body[0].path == "item"
    assert isinstance(loop.body[1], AppendFixed) and loop.body[1].text == "! Ha ha ha.\n"
    assert ir.body[-1].text == ".\n"


def test_each_content_line_contributes_trailing_newline():
    ir, _ = parse_template('tag: t\n"one\n"two\n')
    texts = [n.text for n in ir.body]
    assert texts == ["one\n", "two\n"]


def test_empty_template_body():
    ir, diags = parse_template("tag: t\n")
    assert diags == []
    assert ir.body == []


def test_blank_lines_are_skipped():
    ir, _ = parse_template('tag: t\n\n"x\n   \n"y\n')
    assert [n.text for n in ir.body] == ["x\n", "y\n"]


def test_unbalanced_if_reports_opener_position():
    ir, diags = parse_template('tag: t\n"a\n:if cond {\n"b\n')
    assert ir is None
    assert len(diags) == 1
    assert "unbalanced statement block" in diags[0].message
    assert diags[0].position.line == 3


def test_stray_close_brace_is_an_error():
    ir, diags = parse_template("tag: t\n:}\n")
    assert ir is None
    assert "unbalanced" in diags[0].message


def test_unknown_margin_character():
    ir, diags = parse_template("tag: t\n!boom\n")
    assert ir is None
    assert "unknown margin character" in diags[0].message


def test_malformed_interpolation():
    ir, diags = parse_template('tag: t\n"a ${open\n')
    assert ir is None
    assert "missing '}'" in diags[0].message


def test_method_calls_rejected():
    ir, diags = parse_template('tag: t\n"${items.last()}\n')
    assert ir is None
    assert "method calls" in diags[0].message


def test_dollar_brace_escape():
    # the escaped ${ ends a literal, so the next one starts at its own column
    ir, _ = parse_template('tag: t\n"cost $${price}\n')
    assert [(n.text, n.pos.col) for n in ir.body] == [("cost ${", 2), ("price}\n", 10)]


def test_else_must_follow_if():
    ir, diags = parse_template("tag: t\n:} else {\n:}\n")
    assert ir is None
    assert "without a matching 'if'" in diags[0].message


def test_empty_template_is_one_positioned_error():
    ir, diags = parse_template("", "e.tpl")
    assert ir is None
    assert [str(d) for d in diags] == [
        "e.tpl:1:1: error: empty template: expected 'tag: <name>' on line 1"]


@pytest.mark.parametrize("statement, message", [
    ("for x of a..b {", "invalid loop path: 'a..b'"),
    ("if 1c {", "invalid condition path: '1c'"),
], ids=["loop", "condition"])
def test_invalid_statement_path_is_a_positioned_error(statement, message):
    ir, diags = parse_template(f'tag: t\n  :{statement}\n"x\n', "p.tpl")
    assert ir is None
    assert [str(d) for d in diags] == [f"p.tpl:2:3: error: {message}"]


def test_missing_tag_line():
    ir, diags = parse_template('"content\n')
    assert ir is None
    assert "tag:" in diags[0].message


def test_desugar_single_literal():
    prog = desugar(parse_template('tag: t\n"hi\n')[0])
    assert len(prog.body) == 2
    assert isinstance(prog.body[0], AppendFixed) and prog.body[0].text == "hi\n"
    assert isinstance(prog.body[1], Collected)


def test_desugar_preserves_control_flow_shape():
    src = 'tag: t\n:if c {\n"a\n:} else {\n"b\n:}\n:for x of xs {\n"${x}\n:}\n'
    prog = desugar(parse_template(src)[0])
    branch, loop, collected = prog.body
    assert isinstance(branch, BranchBlock)
    assert [n.text for n in branch.then] == ["a\n"]
    assert [n.text for n in branch.els] == ["b\n"]
    assert isinstance(loop, LoopBlock)
    assert isinstance(loop.body[0], AppendUnsafe)
    assert isinstance(collected, Collected)


def test_if_with_empty_else_has_empty_else_arm():
    src = 'tag: t\n:if c {\n"a\n:}\n'
    prog = desugar(parse_template(src)[0])
    branch = prog.body[0]
    assert isinstance(branch, BranchBlock)
    assert branch.els == []


def test_desugar_is_deterministic():
    a = desugar(parse_template(STORY)[0])
    b = desugar(parse_template(STORY)[0])
    sig_a = [(type(n).__name__, getattr(n, "text", getattr(n, "path", ""))) for n in walk(a.body)]
    sig_b = [(type(n).__name__, getattr(n, "text", getattr(n, "path", ""))) for n in walk(b.body)]
    assert sig_a == sig_b


def test_node_order_matches_source_order():
    src = 'tag: t\n"a${x}b\n"c\n'
    prog = desugar(parse_template(src)[0])
    shapes = [(type(n).__name__, getattr(n, "text", getattr(n, "path", None)))
              for n in prog.body]
    assert shapes == [("AppendFixed", "a"), ("AppendUnsafe", "x"),
                      ("AppendFixed", "b\n"), ("AppendFixed", "c\n"),
                      ("Collected", None)]


def test_positions_point_into_source_lines():
    src = 'tag: t\n  "ab${x}\n'
    ir, _ = parse_template(src, "f.tpl")
    lit, interp = ir.body[0], ir.body[1]
    assert (lit.pos.file, lit.pos.line, lit.pos.col) == ("f.tpl", 2, 4)
    assert (interp.pos.line, interp.pos.col) == (2, 6)


def test_nested_statement_diag_severity():
    ir, diags = parse_template('tag: t\n:for of x {\n')
    assert ir is None
    assert all(d.severity is Severity.ERROR for d in diags)


def test_list_template_desugars_to_seven_appends():
    from conftest import LIST_TEMPLATE

    prog = desugar(parse_template(LIST_TEMPLATE)[0])
    appends = [n for n in walk(prog.body)
               if isinstance(n, (AppendFixed, AppendUnsafe))]
    assert len(appends) == 7
    assert [n.text for n in appends if isinstance(n, AppendFixed)] == [
        "<ul>\n", "  <li><a href=", ">", "</a></li>\n", "</ul>\n"]
    assert [n.path for n in appends if isinstance(n, AppendUnsafe)] == [
        "item.url", "item.label"]


# -- pinned front-end output ----------------------------------------------------

# sha256 over (kind, text/path/var, block arities, line, col) of every node
# that walk yields from desugar(parse_template(src)).body, for the list
# template, the 20 STRUCTURE_CORPUS templates and random_template seeds 0-49,
# as the front end produced them when the parser still built a tree of its own
# that desugar renamed node by node. The arities make the preorder sequence
# fix the tree.
PINNED_FRONT_END_NODES = 609
PINNED_FRONT_END_SHA256 = "e1737658518c7b11c942fca4ba75d8a1cd46182a1fda8334c7235d7d562c6c68"


def _node_signature(node) -> str:
    label = getattr(node, "text", None)
    if label is None:
        label = getattr(node, "path", "")
    if hasattr(node, "var"):
        label = f"{node.var} of {label}"
    for arm in ("body", "then", "els"):
        if hasattr(node, arm):
            label += f"/{len(getattr(node, arm))}"
    return f"{type(node).__name__}|{label}|{node.pos.line}|{node.pos.col}"


def test_front_end_output_is_pinned():
    sources = ([LIST_TEMPLATE] + STRUCTURE_CORPUS
               + [random_template(random.Random(seed))[0] for seed in range(50)])
    digest, count = hashlib.sha256(), 0
    for src in sources:
        for node in walk(desugar(parse_template(src)[0]).body):
            digest.update((_node_signature(node) + "\n").encode("utf-8"))
            count += 1
        digest.update(b"--\n")
    assert count == PINNED_FRONT_END_NODES
    assert digest.hexdigest() == PINNED_FRONT_END_SHA256


def test_desugar_closes_a_new_program_and_leaves_the_parse_alone():
    ir, _ = parse_template(STORY)
    before = list(ir.body)
    first, second = desugar(ir), desugar(ir)
    for prog in (first, second):
        collected = [n for n in walk(prog.body) if isinstance(n, Collected)]
        assert collected == [prog.body[-1]]
        assert prog.body[:-1] == before
        assert prog.body[-1].pos.line == 7
    assert first.body is not second.body
    assert ir.body == before and ir.body is not first.body
    assert not any(isinstance(n, Collected) for n in walk(ir.body))
    (collected,) = desugar(parse_template("tag: t\n")[0]).body
    assert isinstance(collected, Collected)
    assert (collected.pos.line, collected.pos.col) == (2, 1)


# -- the content-line scanner --------------------------------------------------------

def _per_character_content_nodes(text, pos, diags):
    """The content-line scanner as it was before it jumped between ``$``
    characters: one loop iteration per character, with a literal ending
    after each escaped ``${``."""
    nodes, buf, buf_start, i = [], [], 0, 0

    def flush_literal(extra=""):
        if buf or extra:
            nodes.append(AppendFixed("".join(buf) + extra,
                                     Position(pos.file, pos.line, pos.col + buf_start)))
        buf.clear()

    while i < len(text):
        if text.startswith("$${", i):
            buf.append("${")
            flush_literal()
            i += 3
            buf_start = i
            continue
        if text.startswith("${", i):
            end = text.find("}", i + 2)
            if end < 0:
                diags.append(error("malformed interpolation: missing '}'",
                                   Position(pos.file, pos.line, pos.col + i)))
                return nodes
            expr = text[i + 2:end].strip()
            if not PATH_RE.fullmatch(expr):
                if "(" in expr:
                    msg = f"method calls are not supported in interpolations: {expr!r}"
                else:
                    msg = f"invalid interpolation path: {expr!r}"
                diags.append(error(msg, Position(pos.file, pos.line, pos.col + i)))
                return nodes
            flush_literal()
            nodes.append(AppendUnsafe(expr, Position(pos.file, pos.line, pos.col + i)))
            i = end + 1
            buf_start = i
            continue
        buf.append(text[i])
        i += 1
    flush_literal(extra="\n")
    return nodes


def _scanned(scan, text):
    diags = []
    nodes = scan(text, Position("t.tpl", 3, 2), diags)
    return [_node_signature(n) for n in nodes], diags


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(text=st.text(st.sampled_from("${}.a\t"), max_size=24))
def test_content_scanner_equals_the_per_character_loop(text):
    assert _scanned(_content_nodes, text) == _scanned(_per_character_content_nodes, text)


# -- block nesting bound ----------------------------------------------------------

def test_nesting_at_the_bound_parses():
    ir, diags = parse_template(nested_loops(MAX_BLOCK_DEPTH))
    assert diags == []
    depth, body = 0, ir.body
    while body and isinstance(body[0], LoopBlock):
        depth, body = depth + 1, body[0].body
    assert depth == MAX_BLOCK_DEPTH


def test_nesting_past_the_bound_is_one_positioned_error():
    for depth in (MAX_BLOCK_DEPTH + 1, 1200):
        ir, diags = parse_template(nested_loops(depth), "deep.tpl")
        assert ir is None
        assert len(diags) == 1, depth
        (diag,) = diags
        assert diag.severity is Severity.ERROR
        assert "nest more than" in diag.message
        # line 1 is the tag, so the opener past the bound is on line bound + 2
        pos = diag.position
        assert (pos.file, pos.line, pos.col) == ("deep.tpl", MAX_BLOCK_DEPTH + 2, 1)


def test_if_else_chains_count_toward_the_bound():
    src = ("tag: t\n" + ":if c {\n" * MAX_BLOCK_DEPTH + ":} else {\n"
           + ":if d {\n" + '"x\n' + ":}\n" * (MAX_BLOCK_DEPTH + 1))
    ir, diags = parse_template(src)
    assert ir is None and len(diags) == 1
    assert diags[0].position.line == MAX_BLOCK_DEPTH + 3


@pytest.mark.parametrize("var", ["item", "_i2", "x_1", "\u00e9t\u00e9", "a\u0663", "1a", "\u00e9",
                                 "a-b", "a.b", "$a"])
def test_the_parser_and_the_plan_loader_accept_the_same_loop_variables(var):
    ir, _ = parse_template(f"tag: html\n:for {var} of xs {{\n:}}\n")
    try:
        plan_from_json(json.dumps({"language": "html", "body": [
            {"for": {"var": var, "path": "xs", "body": []}}]}))
    except PlanError:
        loads = False
    else:
        loads = True
    assert (ir is not None) == loads


TRAILING_BLOCKS = [
    'tag: t\n:if a {\n"x\n:} else {\n:}\n',
    'tag: t\n:if a {\n:} else {\n"y\n:}\n',
    'tag: t\n"x\n:if a {\n:} else {\n:}\n',
    'tag: t\n:for x of xs {\n:if a {\n"x\n:}\n:}\n\n\n',
    'tag: t\n:for x of xs {\n:}\n',
    "tag: t\n",
]


def test_collected_is_one_line_past_the_last_node():
    sources = (STRUCTURE_CORPUS + [nested_loops(depth) for depth in (1, 5, 40)]
               + TRAILING_BLOCKS + [random_template(random.Random(seed))[0] for seed in range(50)])
    for src in sources:
        ir, _ = parse_template(src)
        last_line = max((n.pos.line for n in walk(ir.body)), default=1)
        assert desugar(ir).body[-1].pos == Position("<template>", last_line + 1, 1), src
