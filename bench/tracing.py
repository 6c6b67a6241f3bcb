"""Per-layer tracing from the benchmark's own files.

A traced run replaces each hooked attribute below with a wrapper that counts
calls and measures inclusive and self time (inclusive minus the time spent
in hooked callees, wrapper bookkeeping included).  Nothing under src/
changes; the hooks are the module globals and methods through which the
layers call each other, so a refactor that renames or inlines one makes the
traced run fail and name the hook instead of silently reporting a layer as
idle.
"""
from __future__ import annotations

import sys
import time

from workloads import BenchError

# hook name -> (tsocbmc submodule, class name or None, attribute)
HOOKS = {
    # model: the name index every engine looks programs up in
    "abmachine.program_index": ("abmachine", None, "program_index"),
    "relabs.program_index": ("relabs", None, "program_index"),
    "tso.program_index": ("tso", None, "program_index"),
    "cli.program_index": ("cli", None, "program_index"),
    # dsl and generators build the input
    "dsl.parse_program_with_target": ("dsl", None, "parse_program_with_target"),
    "cli.parse_program_with_target": ("cli", None, "parse_program_with_target"),
    "generators.gen_bakery": ("generators", None, "gen_bakery"),
    "generators.gen_intersection": ("generators", None, "gen_intersection"),
    # abmachine: machine build and control successors
    "AbMachine.__init__": ("abmachine", "AbMachine", "__init__"),
    "AbMachine.transitions_flat": ("abmachine", "AbMachine", "transitions_flat"),
    # relabs as the engine calls it: order abstraction and key encoding
    "engine.rel_apply": ("engine", None, "rel_apply"),
    "engine.canonical_key": ("engine", None, "canonical_key"),
    "engine.decode_key": ("engine", None, "decode_key"),
    # engine: the search and the witness work
    "engine.check_reach": ("engine", None, "check_reach"),
    "cli.check_reach": ("cli", None, "check_reach"),
    "engine.concretize_witness": ("engine", None, "concretize_witness"),
    "cli.concretize_witness": ("cli", None, "concretize_witness"),
    "engine.validate_witness": ("engine", None, "validate_witness"),
    "engine.concrete_run_to_tso": ("engine", None, "concrete_run_to_tso"),
    # tso: the concrete oracle and run replay
    "tso.cb_reach_bounded": ("tso", None, "cb_reach_bounded"),
    "tso.tso_enabled": ("tso", None, "tso_enabled"),
    "tso.tso_step": ("tso", None, "tso_step"),
    "tso.replay": ("tso", None, "replay"),
    "engine.replay": ("engine", None, "replay"),
    # cli: the command-line entry point
    "cli.main": ("cli", None, "main"),
}

CALLS, TOTAL, SELF, ITEMS, WIDEST = range(5)


def _count_items(acc, result) -> None:
    acc[ITEMS] += len(result)


def _rank_successors(acc, result) -> None:
    acc[ITEMS] += len(result)
    for ranks in result:
        width = max(ranks) + 1 if ranks else 0
        if width > acc[WIDEST]:
            acc[WIDEST] = width


def _witness_steps(acc, result) -> None:
    acc[ITEMS] += len(result.steps)


# what a hook records about each result, besides calls and time
OBSERVE = {
    "tso.tso_enabled": _count_items,
    "AbMachine.transitions_flat": _count_items,
    "engine.rel_apply": _rank_successors,
    "engine.concretize_witness": _witness_steps,
    "cli.concretize_witness": _witness_steps,
}


class Tracer:
    """Installs every hook on enter and restores the originals on exit."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.acc = {name: [0, 0.0, 0.0, 0, 0] for name in HOOKS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, (module, cls, attr) in HOOKS.items():
            owner = getattr(self.pkg, module, None)
            if cls is not None and owner is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.__exit__()
                raise BenchError(f"hook {name}: tsocbmc.{module} has no "
                                 f"callable {cls + '.' if cls else ''}{attr}")
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, self.acc[name], OBSERVE.get(name)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, acc, observe):
        stack = self._stack
        perf = time.perf_counter

        def hooked(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                acc[CALLS] += 1
                acc[TOTAL] += dt
                acc[SELF] += dt - stack.pop()
            if observe is not None:
                observe(acc, result)
            if stack:
                # the caller's self time excludes this call and its bookkeeping
                stack[-1] += perf() - t0
            return result

        return hooked

    def calls(self, name: str) -> int:
        return self.acc[name][CALLS]


def merged(*tracers: Tracer) -> dict[str, list]:
    out = {name: [0, 0.0, 0.0, 0, 0] for name in HOOKS}
    for t in tracers:
        for name, a in t.acc.items():
            o = out[name]
            for i in (CALLS, TOTAL, SELF, ITEMS):
                o[i] += a[i]
            o[WIDEST] = max(o[WIDEST], a[WIDEST])
    return out


def audit(acc: dict[str, list], hot) -> None:
    """Print every hook with its calls; fail on a hot hook that saw none."""
    for name in HOOKS:
        a = acc[name]
        print(f"hook {name}: {a[CALLS]} calls, {a[TOTAL]:.4f} s", file=sys.stderr)
    idle = [name for name in hot if acc[name][CALLS] == 0]
    if idle:
        raise BenchError("hooks expected hot saw no calls: " + ", ".join(idle))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(acc: dict[str, list], states: int, peak_frontier: int,
                  untraced_s: float, traced_s: float) -> dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric."""
    def calls(*names):
        return sum(acc[n][CALLS] for n in names)

    def total(*names):
        return sum(acc[n][TOTAL] for n in names)

    def self_s(*names):
        return sum(acc[n][SELF] for n in names)

    def items(*names):
        return sum(acc[n][ITEMS] for n in names)

    index = ("abmachine.program_index", "relabs.program_index",
             "tso.program_index", "cli.program_index")
    search = ("engine.check_reach", "cli.check_reach")
    concretize = ("engine.concretize_witness", "cli.concretize_witness")
    keys = calls("engine.canonical_key")
    return {
        "model.program_index_calls": (calls(*index), "count"),
        "model.program_index_s": (total(*index), "s"),
        "tso.enabled_calls": (calls("tso.tso_enabled"), "count"),
        "tso.enabled_self_s": (self_s("tso.tso_enabled"), "s"),
        "tso.step_calls": (calls("tso.tso_step"), "count"),
        "tso.step_self_s": (self_s("tso.tso_step"), "s"),
        "tso.labels_per_state": (_ratio(items("tso.tso_enabled"),
                                        calls("tso.tso_enabled")), "ratio"),
        "tso.replay_s": (total("tso.replay", "engine.replay"), "s"),
        "abmachine.build_s": (total("AbMachine.__init__"), "s"),
        "abmachine.transitions_calls": (calls("AbMachine.transitions_flat"), "count"),
        "abmachine.transitions_s": (total("AbMachine.transitions_flat"), "s"),
        "abmachine.successors_per_state": (
            _ratio(items("AbMachine.transitions_flat"),
                   calls("AbMachine.transitions_flat")), "ratio"),
        "relabs.rel_apply_calls": (calls("engine.rel_apply"), "count"),
        "relabs.rel_apply_s": (total("engine.rel_apply"), "s"),
        "relabs.rank_successors_per_call": (
            _ratio(items("engine.rel_apply"), calls("engine.rel_apply")), "ratio"),
        "relabs.rank_width_max": (acc["engine.rel_apply"][WIDEST], "count"),
        "relabs.key_calls": (keys, "count"),
        "relabs.key_s": (total("engine.canonical_key", "engine.decode_key"), "s"),
        "engine.search_self_s": (self_s(*search), "s"),
        "engine.new_key_ratio": (_ratio(states, keys), "ratio"),
        "engine.peak_frontier": (peak_frontier, "count"),
        "engine.concretize_s": (total(*concretize), "s"),
        "engine.validate_s": (total("engine.validate_witness"), "s"),
        "engine.to_tso_s": (total("engine.concrete_run_to_tso"), "s"),
        "engine.witness_steps": (items(*concretize), "count"),
        "cli.check_s": (total("cli.main"), "s"),
        "dsl.parse_s": (total("dsl.parse_program_with_target",
                              "cli.parse_program_with_target"), "s"),
        "generators.gen_s": (total("generators.gen_bakery",
                                   "generators.gen_intersection"), "s"),
        "trace.verdict_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (_ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }


# the counts that must repeat exactly between traced passes, by hook
EXACT_COUNTS = {"relabs.rel_apply_calls": "engine.rel_apply",
                "abmachine.transitions_calls": "AbMachine.transitions_flat",
                "relabs.key_calls": "engine.canonical_key"}
