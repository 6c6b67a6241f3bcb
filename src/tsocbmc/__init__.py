"""Context-bounded reachability for store-buffer programs over unbounded
naturals: a concrete bounded simulator, a finite-control abstraction with an
order abstraction on the data, witness concretization back to real runs, and
generators for cross-checking corpora."""

from ._record import asdict, replace
from .dsl import (
    Dfa, DlcsModel, ParseError, SourceSpan, parse_dfa, parse_dlcs,
    parse_program, parse_program_with_target, render_dfa, render_dlcs,
    render_program, validate_dfa, validate_dlcs,
)
from .engine import (
    ConcreteRun, ConcreteStep, ConcretizationError, Witness, WitnessStep,
    check_reach, concrete_run_to_tso, concretize_witness, inflate,
    validate_witness,
)
from .generators import (
    GenResult, dfa_intersection_oracle, dlcs_reach_bounded, gen_bakery,
    gen_dlcs_reduction, gen_intersection,
)
from .model import (
    EQ, LE, LT, NEQ, Arw, Assign, Guard, InvalidProgramError,
    ModelTooLargeError, NewValue, Program, Read, Relation, Target, Thread,
    Transition, Write, eval_rel, le, lt, validate,
)
from .relabs import (
    abstract_of, canonical_key, decode_key, key_length, rel_apply, rel_check,
    rel_initial,
)
from .tso import (
    Bounds, Label, NotEnabledError, Run, TsoConfig, cb_partition_check,
    cb_reach_bounded, initial_config, normalize_updates, replay, tso_enabled,
    tso_reach_bounded, tso_step,
)
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE, UNREACHABLE_WITHIN_BOUNDS, Stats,
    Verdict,
)

__version__ = "0.1.0"

__all__ = [
    "Arw", "Assign", "BOUND_EXHAUSTED", "Bounds", "ConcreteRun",
    "ConcreteStep", "ConcretizationError", "Dfa", "DlcsModel", "EQ",
    "GenResult", "Guard", "InvalidProgramError", "LE", "LT", "Label",
    "ModelTooLargeError", "NEQ",
    "NewValue", "NotEnabledError", "ParseError", "Program", "REACHABLE",
    "Read", "Relation", "Run", "SourceSpan", "Stats", "Target",
    "Thread",
    "Transition", "TsoConfig", "UNREACHABLE", "UNREACHABLE_WITHIN_BOUNDS",
    "Verdict", "Witness", "WitnessStep", "Write", "abstract_of", "asdict",
    "canonical_key", "cb_partition_check", "cb_reach_bounded", "check_reach",
    "concrete_run_to_tso", "concretize_witness", "decode_key",
    "dfa_intersection_oracle", "dlcs_reach_bounded", "eval_rel", "gen_bakery",
    "gen_dlcs_reduction", "gen_intersection", "inflate", "initial_config",
    "key_length", "le", "lt", "normalize_updates", "parse_dfa", "parse_dlcs",
    "parse_program", "parse_program_with_target", "rel_apply", "rel_check",
    "rel_initial", "render_dfa", "render_dlcs", "render_program", "replace",
    "replay",
    "tso_enabled", "tso_reach_bounded", "tso_step", "validate", "validate_dfa",
    "validate_dlcs", "validate_witness",
]
