"""The package's public names: ``ctxesc.__all__`` is exactly the names a
user calls, and each one resolves, so a stale lazy-export entry fails here
and not in a user's import."""

import ctxesc

PUBLIC = {
    "compile_template", "execute_plan", "plan_from_json", "plan_to_json", "CompiledPlan",
    "Bindings", "SafeContent", "Mark",
    "extract_messages", "apply_translation",
    "Diagnostic", "Position", "Severity",
    "CompositionError", "PlanError", "RenderError", "TableError",
}


def test_public_names_are_exactly_the_user_surface():
    assert len(ctxesc.__all__) == len(PUBLIC) == 17
    assert set(ctxesc.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in ctxesc.__all__:
        assert getattr(ctxesc, name) is not None, name
