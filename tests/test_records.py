"""The value semantics of the records a plan render uses: positions,
diagnostics, safe content, marks, escapers, bindings and plan nodes.
Constructors, equality, hashing, immutability, copying and repr are pinned
here so that how the records are defined can change without changing how
they behave."""

import copy
import pickle

import pytest

from ctxesc.diagnostics import Diagnostic, Position, Severity
from ctxesc.escapers import Escaper, escape_pcdata
from ctxesc.escapers import get as get_escaper
from ctxesc.marks import Mark
from ctxesc.plan import Bindings, CompiledPlan, Lit, PlanFor, PlanIf, PlanInterp, execute_plan
from ctxesc.values import EscapeError, SafeContent

P1 = Position("t.tpl", 3, 7)
P2 = Position("u.tpl", 1, 1)

# (class, constructor args, args differing in one value, first field of a
# frozen record or None)
CASES = [
    (Position, ("t.tpl", 3, 7), ("t.tpl", 3, 8), "file"),
    (Diagnostic, (Severity.WARNING, "m", P1), (Severity.ERROR, "m", P1), "severity"),
    (SafeContent, ("html", "<b>"), ("css", "<b>"), "language"),
    (Mark, ("MsgStart", 2, "m1"), ("MsgStart", 2, None), "kind"),
    (Escaper, ("HtmlPcdataEscaper", escape_pcdata), ("Other", escape_pcdata), "name"),
    (Bindings, ({"a": [1, 2]},), ({"a": [1]},), None),
    (Lit, ("<p>", (Mark("MsgStart", 0, "m"),)), ("<p>", ()), None),
    (PlanInterp, ("x.y", ("HtmlPcdataEscaper",)), ("x.y", ()), None),
    (PlanFor, ("item", "items", [Lit("a")]), ("item", "items", [Lit("b")]), None),
    (PlanIf, ("c", [Lit("a")], []), ("c", [], [Lit("a")]), None),
    (CompiledPlan, ("html", [Lit("a")]), ("text", [Lit("a")]), None),
]
IDS = [case[0].__name__ for case in CASES]
SITES = [PlanInterp("x", ("HtmlPcdataEscaper",)), PlanFor("v", "xs", []), PlanIf("c", [], [])]


@pytest.mark.parametrize("cls, args, other, frozen", CASES, ids=IDS)
def test_equality_is_by_type_and_value(cls, args, other, frozen):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other)
    assert a != type(cls.__name__ + "Sub", (cls,), {})(*args)
    assert a != args
    assert not isinstance(a, tuple)


@pytest.mark.parametrize("cls, args, other, frozen", CASES, ids=IDS)
def test_frozen_records_hash_and_refuse_assignment(cls, args, other, frozen):
    a = cls(*args)
    if frozen is None:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(cls(*args))
    assert {a, cls(*args)} == {a}
    with pytest.raises(AttributeError):
        setattr(a, frozen, getattr(a, frozen))
    with pytest.raises(AttributeError):
        delattr(a, frozen)
    assert cls(*args) == a


@pytest.mark.parametrize("cls, args, other, frozen", CASES, ids=IDS)
def test_deepcopy_and_pickle_round_trip(cls, args, other, frozen):
    a = cls(*args)
    for b in (copy.deepcopy(a), copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is cls
    if frozen is None:
        assert copy.deepcopy(a) is not a


def test_repr_names_the_class_and_its_fields():
    assert repr(P1) == "Position(file='t.tpl', line=3, col=7)"
    assert repr(Diagnostic(Severity.ERROR, "m", P1)) == (
        "Diagnostic(severity=<Severity.ERROR: 'error'>, message='m', "
        "position=Position(file='t.tpl', line=3, col=7))")
    assert repr(SafeContent("html", "<b>")) == "SafeContent(language='html', text='<b>')"
    assert repr(Mark("MsgEnd", 4)) == "Mark(kind='MsgEnd', offset=4, ident=None)"
    assert repr(Escaper("E", escape_pcdata)).startswith(
        "Escaper(name='E', transform=<function escape_pcdata at ")
    assert repr(Bindings({"a": 1})) == "Bindings(values={'a': 1})"
    assert repr(Lit("x")) == "Lit(text='x', marks=())"
    # pos and lowered are left out
    assert repr(PlanInterp("x", ("E",), pos=P1)) == "PlanInterp(path='x', escapers=('E',))"
    assert repr(PlanFor("v", "xs", [Lit("a")], pos=P1)) == (
        "PlanFor(var='v', path='xs', body=[Lit(text='a', marks=())])")
    assert repr(PlanIf("c", [], [], pos=P1)) == "PlanIf(path='c', then=[], els=[])"
    assert repr(CompiledPlan("html", [])) == "CompiledPlan(language='html', body=[])"


def test_constructor_defaults():
    assert Mark("MsgEnd", 4).ident is None
    assert Lit("x").marks == ()
    assert Bindings().values == {}
    first = Bindings()
    first.values["a"] = 1
    assert Bindings().values == {}
    for node in SITES:
        assert node.pos is None
    assert CompiledPlan("html", []).lowered is None


def test_pos_is_keyword_only_and_lowered_no_argument():
    assert PlanInterp("x", (), pos=P1).pos == P1
    assert PlanFor("v", "xs", [], pos=P1).pos == P1
    assert PlanIf("c", [], [], pos=P1).pos == P1
    with pytest.raises(TypeError):
        PlanInterp("x", (), P1)
    with pytest.raises(TypeError):
        PlanFor("v", "xs", [], P1)
    with pytest.raises(TypeError):
        PlanIf("c", [], [], P1)
    with pytest.raises(TypeError):
        CompiledPlan("html", [], None)


def test_pos_is_outside_equality_but_kept_by_copies():
    for node in SITES:
        placed = copy.copy(node)
        placed.pos = P1
        assert placed == node
        for dup in (copy.deepcopy(placed), pickle.loads(pickle.dumps(placed))):
            assert dup.pos == P1
        placed.pos = P2
        assert placed == node


def test_lowered_is_outside_equality():
    plan = CompiledPlan("html", [Lit("<p>"), PlanInterp("x", ("HtmlPcdataEscaper",))])
    assert execute_plan(plan, Bindings({"x": "<"}))[0] == SafeContent("html", "<p>&lt;")
    assert plan.lowered is not None
    fresh = CompiledPlan("html", [Lit("<p>"), PlanInterp("x", ("HtmlPcdataEscaper",))])
    assert plan == fresh
    assert copy.deepcopy(plan) == fresh


def test_plan_records_stay_mutable():
    lit, plan = Lit("a"), CompiledPlan("html", [])
    lit.marks = lit.marks + (Mark("MsgStart", 0),)
    plan.body.append(lit)
    assert plan == CompiledPlan("html", [Lit("a", (Mark("MsgStart", 0),))])


def test_json_escaper_rejects_safe_content_inside_a_list():
    with pytest.raises(EscapeError):
        get_escaper("JsonValueEscaper").apply([SafeContent("html", "<b>")])
    with pytest.raises(EscapeError):
        get_escaper("JsonValueEscaper").apply({"k": SafeContent("html", "<b>")})
