"""Randomized differential suites.

Each suite generates small random programs and checks one behavioral
contract between two independent layers (concrete search vs. abstraction,
abstract steps vs. rank steps, abstract witnesses vs. concrete replays).
Suites are deterministic for a fixed seed and report counted cases plus
failure descriptions instead of raising, so they can run from the command
line as well as inside the test suite.
"""
from __future__ import annotations

import random
from itertools import groupby
from typing import Callable, Optional

from ._record import factory, record
from .abmachine import GuardFailedError, ab_machine
from .engine import (
    check_reach, concrete_run_to_tso, concretize_witness, inflate,
    validate_witness,
)
from .model import (
    EQ, LT, NEQ, Arw, Assign, Guard, NewValue, Program, Read, Target, Thread,
    Transition, Write, lt, program_index,
)
from .relabs import abstract_of, rel_apply
from .tso import (
    Bounds, Run, cb_partition_check, cb_reach_bounded, initial_config,
    normalize_updates, replay, tso_enabled, tso_step,
)
from .verdict import BOUND_EXHAUSTED

_RELS = (EQ, NEQ, LT, lt(1))


def random_program(rng: random.Random, n_threads: int = 2,
                   allow_arw: bool = True) -> Program:
    """Up to 2 shared variables; per thread 2-4 states, 1-2 registers and
    2-6 transitions."""
    shared = tuple(f"x{i}" for i in range(rng.randint(1, 2)))
    threads = []
    for t in range(n_threads):
        ns = rng.randint(2, 4)
        states = tuple(f"q{s}" for s in range(ns))
        nr = rng.randint(1, 2)
        regs = tuple(f"t{t}r{i}" for i in range(nr))
        trs = []
        for _ in range(rng.randint(2, 6)):
            src = states[rng.randrange(ns)]
            dst = states[rng.randrange(ns)]
            r1 = regs[rng.randrange(nr)]
            r2 = regs[rng.randrange(nr)]
            x = shared[rng.randrange(len(shared))]
            roll = rng.random()
            if roll < 0.10:
                op = Assign(r1, r2)
            elif roll < 0.30:
                op = NewValue(r1)
            elif roll < 0.55:
                op = Guard(_RELS[rng.randrange(len(_RELS))], r1, r2)
            elif roll < 0.75:
                op = Read(x, r1)
            elif roll < 0.95 or not allow_arw:
                op = Write(x, r1)
            else:
                op = Arw(x, r1, r2)
            trs.append(Transition(src, op, dst))
        threads.append(Thread(f"t{t}", states, regs, states[0], tuple(trs)))
    return Program.make(threads, shared)


def random_target(rng: random.Random, program: Program) -> Target:
    th = program.threads[rng.randrange(len(program.threads))]
    return Target(th.id, th.states[rng.randrange(len(th.states))])


def random_cb_run(program: Program, k: int, bounds: Bounds,
                  rng: random.Random) -> Run:
    """Random walk of at most 40 steps under the bounded TSO semantics,
    switching threads at most k-1 times (so the result fits into k
    contexts)."""
    c = initial_config(program)
    labels = []
    active: Optional[str] = None
    blocks = 0
    for _ in range(40):
        allowed = [l for l in tso_enabled(program, c, bounds)
                   if l.thread == active or blocks < k]
        if not allowed:
            break
        label = allowed[rng.randrange(len(allowed))]
        if label.thread != active:
            active = label.thread
            blocks += 1
        c = tso_step(program, c, label)
        labels.append(label)
        if rng.random() < 0.04:
            break
    return replay(program, labels)


@record(frozen=False)
class SuiteResult:
    name: str
    cases: int = 0
    skipped: int = 0
    failures: list[str] = factory(list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f", {self.skipped} skipped" if self.skipped else ""
        return (f"{status} {self.name}: {self.cases} cases, "
                f"{len(self.failures)} failures{extra}")


def suite_cb_vs_abstract(seed: int = 0, programs: int = 200,
                         ks=(1, 2, 3), threads: int = 2) -> SuiteResult:
    """Anything the bounded concrete search reaches within k contexts, the
    abstraction must reach too; and every abstract witness must concretize
    and validate."""
    rng = random.Random(seed)
    res = SuiteResult("cb-vs-abstract")
    bounds = Bounds(2, 3, 300)
    for pi in range(programs):
        p = random_program(rng, threads)
        tgt = random_target(rng, p)
        for k in ks:
            oracle = cb_reach_bounded(p, tgt, k, bounds, max_states=120_000)
            if oracle.status == BOUND_EXHAUSTED:
                res.skipped += 1
                continue
            eng = check_reach(p, tgt, k, max_states=250_000)
            res.cases += 1
            if oracle.reachable and not eng.reachable:
                res.failures.append(
                    f"program {pi} k={k}: concrete search reaches "
                    f"{tgt.thread}:{tgt.state} but the abstraction does not")
                continue
            if eng.reachable:
                try:
                    run = concretize_witness(p, eng.witness)
                    validate_witness(p, run)
                except Exception as e:  # noqa: BLE001 - recorded, not raised
                    res.failures.append(f"program {pi} k={k}: witness does "
                                        f"not concretize: {e}")
    return res


def suite_step_soundness(seed: int = 0, steps: int = 1000) -> SuiteResult:
    """The rank image of every concrete abstract-machine step must be among
    the rank successors of its effect list."""
    rng = random.Random(seed)
    res = SuiteResult("step-soundness")
    while res.cases < steps:
        p = random_program(rng)
        k = rng.randint(1, 3)
        m = ab_machine(p, k)
        flats = m.all_initial_flats()
        flat = flats[rng.randrange(len(flats))]
        vals = (0,) * m.nab
        for _ in range(14):
            trans = m.successors(flat)
            if not trans:
                break
            core, eff, flat2 = trans[rng.randrange(len(trans))]
            fresh = rng.randrange(0, 7) if any(e[0] == "fresh" for e in eff) else None
            try:
                vals2 = m.apply_effects(vals, eff, fresh)
            except GuardFailedError:
                continue
            res.cases += 1
            if abstract_of(vals2) not in rel_apply(abstract_of(vals), eff):
                res.failures.append(
                    f"step {m.render_label(core)} leaves the "
                    f"rank successors")
            flat, vals = flat2, vals2
            if res.cases >= steps:
                break
    return res


def _reachable_witness_runs(rng: random.Random, want: int,
                            on_hit: Callable, res: SuiteResult) -> None:
    """Search random programs until want of them are reachable with a
    witness of one step or more, and run on_hit on each; about one search in
    four or five qualifies, so 60 attempts a case leave ample room."""
    attempts = 0
    while res.cases < want and attempts < 60 * want:
        attempts += 1
        p = random_program(rng)
        tgt = random_target(rng, p)
        k = rng.randint(1, 3)
        v = check_reach(p, tgt, k, max_states=60_000)
        if not v.reachable or not v.witness.steps:
            # a target the initial state already hits tests no witness work
            continue
        res.cases += 1
        try:
            on_hit(p, tgt, k, v)
        except Exception as e:  # noqa: BLE001 - recorded, not raised
            res.failures.append(f"{tgt.thread}:{tgt.state} k={k}: {e}")
    if res.cases < want:
        res.failures.append(
            f"only {res.cases} reachable instances found in {attempts} attempts")


def suite_witness_concretization(seed: int = 0, want: int = 100) -> SuiteResult:
    """Every abstract witness concretizes to a validating run whose rebuilt
    store-buffer run hits the target within the context bound."""
    rng = random.Random(seed)
    res = SuiteResult("witness-concretization")

    def on_hit(p, tgt, k, v):
        run = concretize_witness(p, v.witness)
        validate_witness(p, run)
        tso_run = concrete_run_to_tso(p, run)
        idx = program_index(p)
        tti, tsi = idx.target_idx(tgt)
        if tso_run.final.st[tti] != tsi:
            raise AssertionError("rebuilt run misses the target")
        if not cb_partition_check(tso_run, k):
            raise AssertionError(f"rebuilt run does not fit into {k} contexts")

    _reachable_witness_runs(rng, want, on_hit, res)
    return res


def suite_value_inflation(seed: int = 0, want: int = 100) -> SuiteResult:
    """Shifting all values >= a point upward preserves witness validity and
    every step's rank tuple."""
    rng = random.Random(seed)
    res = SuiteResult("value-inflation")

    def on_hit(p, tgt, k, v):
        run = concretize_witness(p, v.witness)
        at = rng.randint(1, 6)
        amount = rng.randint(0, 5)
        shifted = inflate(run, at, amount)
        validate_witness(p, shifted)
        for s1, s2 in zip(run.steps, shifted.steps):
            if abstract_of(s1.values) != abstract_of(s2.values):
                raise AssertionError("inflation changed a rank tuple")

    _reachable_witness_runs(rng, want, on_hit, res)
    return res


def suite_update_normalization(seed: int = 0, runs: int = 100) -> SuiteResult:
    """Moving each context's buffer updates to the context boundary must not
    change the final configuration of an arw-free context-bounded run."""
    rng = random.Random(seed)
    res = SuiteResult("update-normalization")
    bounds = Bounds(2, 3, 300)
    while res.cases < runs:
        p = random_program(rng, allow_arw=False)
        k = rng.randint(1, 3)
        run = random_cb_run(p, k, bounds, rng)
        res.cases += 1
        try:
            norm = normalize_updates(p, run, k)
        except Exception as e:  # noqa: BLE001 - recorded, not raised
            res.failures.append(f"normalization raised: {e}")
            continue
        if norm.final != run.final:
            res.failures.append("normalization changed the final configuration")
        if not cb_partition_check(norm, k):
            res.failures.append("normalization broke the context partition")
        # within each context the updates must sit at the end
        flags = [[l.is_update for l in ctx]
                 for _, ctx in groupby(norm.labels, lambda l: l.thread)]
        if any(f != sorted(f) for f in flags):
            res.failures.append("an operation follows an update in its context")
    return res


# suite name -> (suite, its size argument, that size at scale 1)
_SUITES: dict[str, tuple[Callable[..., SuiteResult], str, int]] = {
    "cb-vs-abstract": (suite_cb_vs_abstract, "programs", 200),
    "step-soundness": (suite_step_soundness, "steps", 1000),
    "witness-concretization": (suite_witness_concretization, "want", 100),
    "value-inflation": (suite_value_inflation, "want", 100),
    "update-normalization": (suite_update_normalization, "runs", 100),
}


def run_suites(seed: int = 0, scale: float = 1.0,
               only: Optional[str] = None) -> list[SuiteResult]:
    names = [only] if only else list(_SUITES)
    if only and only not in _SUITES:
        raise ValueError(f"unknown suite '{only}' (have: {', '.join(_SUITES)})")
    # every suite is sized before any runs, so a scale whose case counts
    # overflow raises OverflowError at once
    sized = [(suite, {arg: max(1, round(base * scale))})
             for suite, arg, base in (_SUITES[n] for n in names)]
    return [suite(seed=seed, **size) for suite, size in sized]
