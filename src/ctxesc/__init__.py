"""ctxesc: contextual autoescaping for composing structured content.

Templates are parsed into an append program, a context machine tracks the
parse state of the content language across fixed chunks and interpolation
boundaries, and the compiler erases the machine into a plan of literal
chunks plus statically chosen escaper chains.
"""

from .compiler import (
    AnnotatedProgram,
    CompiledPlan,
    analyze_template,
    compile_template,
    erase,
    execute_plan,
    plan_from_json,
    plan_to_json,
    propagate,
)
from .diagnostics import (
    CompositionError,
    Diagnostic,
    PlanError,
    Position,
    RenderError,
    Severity,
    TableError,
)
from .frontend import AppendProgram, TemplateIR, desugar, parse_template
from .i18n import apply_translation, extract_messages, substitute_placeholders
from .machine import (
    Machine,
    MachineState,
    build_machine,
    finish,
    is_valid_end,
    merge,
    step_fixed,
    step_interp,
    transition_op_count,
)
from .marks import Mark
from .runtime import Accumulator, Bindings, render_full
from .tables import TransitionTable, parse_table, validate_table
from .values import SafeContent
from .web import codec_decode, codec_encode, html_machine, machine_for_tag, plain_text_machine

__all__ = [
    "Accumulator",
    "AnnotatedProgram",
    "AppendProgram",
    "Bindings",
    "CompiledPlan",
    "CompositionError",
    "Diagnostic",
    "Machine",
    "MachineState",
    "Mark",
    "PlanError",
    "Position",
    "RenderError",
    "SafeContent",
    "Severity",
    "TableError",
    "TemplateIR",
    "TransitionTable",
    "analyze_template",
    "apply_translation",
    "build_machine",
    "codec_decode",
    "codec_encode",
    "compile_template",
    "desugar",
    "erase",
    "execute_plan",
    "extract_messages",
    "finish",
    "html_machine",
    "is_valid_end",
    "machine_for_tag",
    "merge",
    "parse_table",
    "parse_template",
    "plain_text_machine",
    "plan_from_json",
    "plan_to_json",
    "propagate",
    "render_full",
    "step_fixed",
    "step_interp",
    "substitute_placeholders",
    "transition_op_count",
    "validate_table",
]
