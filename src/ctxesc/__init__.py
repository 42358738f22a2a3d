"""ctxesc: contextual autoescaping for composing structured content.

Templates are parsed into an append program, a context machine tracks the
parse state of the content language across fixed chunks and interpolation
boundaries, and the compiler erases the machine into a plan of literal
chunks plus statically chosen escaper chains.

The names below, the ones a user calls, are imported from their submodules
on first access (PEP 562), so importing the package, or rendering a plan
through ``ctxesc.plan``, loads neither the context machine nor its tables.
"""

import importlib

_EXPORTS = {
    "compiler": ("compile_template",),
    "diagnostics": ("CompositionError", "Diagnostic", "PlanError", "Position",
                    "RenderError", "Severity", "TableError"),
    "i18n": ("apply_translation", "extract_messages"),
    "marks": ("Mark",),
    "plan": ("Bindings", "CompiledPlan", "execute_plan", "plan_from_json", "plan_to_json"),
    "values": ("SafeContent",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
