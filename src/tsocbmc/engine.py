"""Reachability over the combined abstraction, plus witness processing.

The search space pairs the summarized control state with a rank tuple over
the summary variables.  Both parts are short vectors of small naturals, so a
state is stored as its byte string; the encoding is the identity per
component and therefore injective, which makes the key *be* the state and
keeps the visited set compact for desk-scale models.

Many rank tuples share one control state, and a control state's successors
(labels, effects, successor control, whether it hits the target) do not
depend on the ranks.  So each search computes them once per control state
and reuses them for every rank tuple paired with it; the table lives only
as long as that search.

A positive verdict carries an abstract witness: per step, the machine's own
label and effect tuples (see abmachine) and the rank tuple after the step;
the machine renders them for reports.  From it we can

  * concretize: replay the steps assigning actual naturals, inflating the
    value space (shifting everything >= some point upward) whenever a gap
    or offset constraint needs room, and
  * reconstruct a plain store-buffer run whose context blocks match the
    abstract schedule, flushing each buffered write at the end of its
    chosen context.
"""
from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .abmachine import (
    R_BUF_ARW, R_MEM_ARW, R_SWITCH, R_WRITE, AbMachine, GuardFailedError,
    ab_machine,
)
from .model import LT, OP_FRESH, Program, Target, eval_rel
from .relabs import abstract_of, canonical_key, decode_key, key_length, rel_apply, rel_initial
from .tso import Label, Run, replay
from .verdict import BOUND_EXHAUSTED, REACHABLE, UNREACHABLE, Stats, Verdict


@dataclass(frozen=True)
class WitnessStep:
    label: tuple              # core label (rule, thread, position, ctx)
    effects: tuple            # core effects over summary columns
    rel_after: tuple[int, ...]


@dataclass(frozen=True)
class Witness:
    k: int
    act: tuple[str, ...]
    steps: tuple[WitnessStep, ...]


@dataclass(frozen=True)
class ConcreteStep:
    label: tuple              # core label, as in WitnessStep
    fresh_value: Optional[int]
    values: tuple[int, ...]   # summary-variable values after the step


@dataclass(frozen=True)
class ConcreteRun:
    k: int
    act: tuple[str, ...]
    steps: tuple[ConcreteStep, ...]


def _rss_mb() -> float:
    """Current resident set size.  Where /proc/self/statm is missing this
    falls back to the lifetime peak, which only ever grows."""
    try:
        with open("/proc/self/statm", "rb") as f:
            pages = int(f.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seed_order(m: AbMachine, tti: int) -> Iterator[tuple[int, ...]]:
    """Context schedules worth searching, most promising first.

    A run can only hit the target while the target thread is active, and
    the maximal blocks of a run never repeat a thread across a boundary
    (shorter block lists embed via empty trailing contexts).  So for two or
    more threads it suffices to try repeat-free schedules that mention the
    target thread.  Schedules ending with the target thread go first: the
    common witness shape does all its other work before the target thread's
    final look.  Within each group the order is lexicographic.  The
    schedules are generated lazily, so a cap can end the search before a
    large k has enumerated them all.
    """
    k, nt = m.k, m.nt
    if nt == 1:
        yield (0,) * k
        return

    def walk(prefix: tuple[int, ...], ends_on_target: bool):
        # depth first in lexicographic order over repeat-free schedules
        for t in range(nt):
            if prefix and t == prefix[-1]:
                continue
            act = prefix + (t,)
            if len(act) < k:
                yield from walk(act, ends_on_target)
            elif (t == tti) == ends_on_target and tti in act:
                yield act

    yield from walk((), True)
    yield from walk((), False)


def check_reach(program: Program, target: Target, k: int,
                max_states: int = 2_000_000,
                max_mb: Optional[float] = None) -> Verdict:
    """Decide reachability of the target within k contexts.

    The combined state space is finite, so with no caps hit the negative
    answer is definitive for this k.  Search order is deterministic:
    schedules in the _seed_order, breadth-first within each, transitions in
    program order.  The visited set is shared across schedules; converging
    runs are explored once.
    """
    m = ab_machine(program, k)
    tti, tsi = m.idx.target_idx(target)
    klen = key_length(program, k)
    stats = Stats()
    start = time.perf_counter()

    r0 = rel_initial(m.nab)
    visited: dict[bytes, Optional[tuple[bytes, tuple]]] = {}
    # control state -> [(label, effects, successor control bytes, hits target)]
    succ: dict[tuple[int, ...], list] = {}

    def finish(found: bool, status: str, node: Optional[bytes] = None) -> Verdict:
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        stats.control_states = len(succ)
        witness = None
        if found:
            chain = []
            cur = node
            while visited[cur] is not None:
                prev, core = visited[cur]
                chain.append((prev, core, cur))
                cur = prev
            chain.reverse()
            act_flat, _ = decode_key(m.flat_len, cur)
            act = tuple(m.idx.thread_ids[t] for t in act_flat[m.ACT:m.ACT + k])
            steps = []
            for prev, core, after in chain:
                pf, _ = decode_key(m.flat_len, prev)
                _, ranks_after = decode_key(m.flat_len, after)
                eff, _ = m.apply_flat(pf, core)
                steps.append(WitnessStep(core, eff, ranks_after))
            witness = Witness(k, act, tuple(steps))
        return Verdict(found, status, witness, stats)

    checked = 0
    for act in _seed_order(m, tti):
        flat = m.initial_flat(act)
        key = canonical_key(flat, r0)
        assert len(key) == klen
        if key in visited:
            continue
        visited[key] = None
        if flat[m.ST + tti] == tsi:
            return finish(True, REACHABLE, key)
        frontier: deque[bytes] = deque([key])
        while frontier:
            stats.peak_frontier = max(stats.peak_frontier, len(frontier))
            key = frontier.popleft()
            flat, ranks = decode_key(m.flat_len, key)
            stats.states_explored += 1
            checked += 1
            if max_mb is not None and checked % 4096 == 0 and _rss_mb() > max_mb:
                stats.stop_reason = "max_mb"
                return finish(False, BOUND_EXHAUSTED)
            moves = succ.get(flat)
            if moves is None:
                moves = succ[flat] = [
                    (core, eff, bytes(flat2), flat2[m.ST + tti] == tsi)
                    for core, eff, flat2 in m.transitions_flat(flat)]
            for core, eff, flat2, hit in moves:
                for ranks2 in rel_apply(ranks, eff):
                    key2 = canonical_key(flat2, ranks2)
                    if key2 in visited:
                        continue
                    assert len(key2) == klen
                    visited[key2] = (key, core)
                    if hit:
                        return finish(True, REACHABLE, key2)
                    if len(visited) > max_states:
                        stats.stop_reason = "max_states"
                        return finish(False, BOUND_EXHAUSTED)
                    frontier.append(key2)
    return finish(False, UNREACHABLE)


class ConcretizationError(ValueError):
    pass


def concretize_witness(program: Program, witness: Witness) -> ConcreteRun:
    """Assign actual naturals to an abstract witness.

    Values are replayed step by step.  A fresh value is placed according to
    its rank in the step's rank tuple: joining a class copies that class's
    value; a slot between classes takes the midpoint, first inflating if the
    gap is a single unit; a slot above the top takes top+1.  A failing
    offset guard (only those with a positive offset can fail, the rank
    invariant settles the rest) is repaired by inflating at the right-hand
    value.  Inflation shifts every value >= a point upward everywhere in the
    run built so far, which keeps ranks, and so the replayed schedule,
    intact.
    """
    m = ab_machine(program, witness.k)
    vals = (0,) * m.nab
    run = ConcreteRun(witness.k, witness.act, ())

    def make_room(at: int, amount: int) -> None:
        # the run so far, and the values of the step in progress
        nonlocal run, vals
        run = inflate(run, at, amount)
        vals = tuple(v + amount if v >= at else v for v in vals)

    for step in witness.steps:
        eff_core = step.effects
        ra = step.rel_after
        fresh: Optional[int] = None
        fresh_at = [n for n, e in enumerate(eff_core) if e[0] == "fresh"]
        if len(fresh_at) > 1 or (fresh_at and any(
                e[0] != "copy" or e[2] != 0
                for e in eff_core[fresh_at[0] + 1:])):
            # the placement below reads ranks of the step's final values; a
            # later effect may only zero a variable (whose final rank is then
            # the sentinel's), anything else could shift the classes under us
            raise ConcretizationError("fresh may only be followed by resets")
        for eff in eff_core:
            tag = eff[0]
            if tag in ("copy", "multi"):
                vals = m.apply_effects(vals, (eff,))
            elif tag == "guard":
                _, rel, a, b = eff
                if eval_rel(rel, vals[a], vals[b]):
                    continue
                # ranks guarantee everything except positive offsets
                if rel.n < 1:
                    raise ConcretizationError("guard fails below its rank promise")
                if rel.kind == LT.kind:
                    need = vals[a] + rel.n + 1 - vals[b]
                else:
                    need = vals[a] + rel.n - vals[b]
                make_room(vals[b], need)
                assert eval_rel(rel, vals[a], vals[b])
            else:  # fresh
                d = eff[1]
                rd = ra[d]
                join = [i for i in range(m.nab) if i != d and ra[i] == rd]
                if join:
                    fresh = vals[join[0]]
                else:
                    below = [vals[i] for i in range(m.nab) if i != d and ra[i] == rd - 1]
                    above = [vals[i] for i in range(m.nab) if i != d and ra[i] == rd + 1]
                    if not below:
                        raise ConcretizationError("fresh placed below the sentinel")
                    v_lo = below[0]
                    if not above:
                        fresh = v_lo + 1
                    else:
                        v_hi = above[0]
                        if v_hi - v_lo < 2:
                            make_room(v_hi, v_lo + 2 - v_hi)
                            v_hi = v_lo + 2
                        fresh = (v_lo + v_hi) // 2
                vals = m.apply_effects(vals, (eff,), fresh)
        if abstract_of(vals) != ra:
            raise ConcretizationError("concrete replay left the witness ranks")
        run = replace(run, steps=run.steps + (ConcreteStep(step.label, fresh, vals),))
    return run


def inflate(run: ConcreteRun, at: int, amount: int) -> ConcreteRun:
    """Shift every value >= `at` upward by `amount` across the whole run.
    With at >= 1 the initial all-zero state is untouched, so the result
    replays exactly like the original."""
    if at < 1 or amount < 0:
        raise ValueError("need at >= 1 and amount >= 0")

    def sh(v: int) -> int:
        return v + amount if v >= at else v

    steps = tuple(
        ConcreteStep(s.label,
                     None if s.fresh_value is None else sh(s.fresh_value),
                     tuple(sh(v) for v in s.values))
        for s in run.steps
    )
    return ConcreteRun(run.k, run.act, steps)


def validate_witness(program: Program, run: ConcreteRun) -> bool:
    """Replay a concrete run against the summarized machine: every label
    must be enabled, every guard must pass on the actual values, and the
    recorded value vectors must match.  Raises on any mismatch."""
    m = ab_machine(program, run.k)
    act_idx = tuple(m.idx.tid[t] for t in run.act)
    flat = m.initial_flat(act_idx)
    vals = (0,) * m.nab
    for n, step in enumerate(run.steps):
        eff, flat2 = m.apply_flat(flat, step.label)
        try:
            vals2 = m.apply_effects(vals, eff, step.fresh_value)
        except GuardFailedError as e:
            raise ConcretizationError(f"step {n}: {e}") from e
        if vals2 != step.values:
            raise ConcretizationError(f"step {n}: replayed values diverge")
        flat, vals = flat2, vals2
    return True


def concrete_run_to_tso(program: Program, run: ConcreteRun) -> Run:
    """Rebuild a plain store-buffer run from a concretized witness.

    Buffered writes are flushed at the boundary of their chosen context:
    when the active thread switches out of context j, its pending writes
    tagged j commit, oldest first.  An atomic read-write needs an empty
    buffer, so everything still pending for that thread (all tagged with the
    current context or never) commits just before it; writes tagged "never"
    cannot precede one, the abstraction already blocks that.  Writes that
    never commit simply stay in the buffer.  The result replays under exact
    store-buffer semantics and its context blocks follow run.act.
    """
    m = ab_machine(program, run.k)
    idx = m.idx
    pending: dict[int, deque[int]] = {ti: deque() for ti in range(m.nt)}
    labels: list[Label] = []
    j = 1

    def flush_front(ti: int, upto: int) -> None:
        q = pending[ti]
        while q and q[0] <= upto:
            q.popleft()
            labels.append(Label(idx.thread_ids[ti], None))

    for step in run.steps:
        rule, ti, pos, jx = step.label
        if rule == R_SWITCH:
            flush_front(ti, j)
            j = jx
            continue
        tname = idx.thread_ids[ti]
        delta = idx.thread_transitions[ti][pos]
        if rule == R_WRITE:
            labels.append(Label(tname, delta))
            pending[ti].append(jx)
        elif rule in (R_BUF_ARW, R_MEM_ARW):
            flush_front(ti, j)
            if pending[ti]:
                raise ConcretizationError("buffered write tagged past the context "
                                          "at an atomic read-write")
            labels.append(Label(tname, delta))
        elif idx.ops[ti][pos][0] == OP_FRESH:
            # a draw into a register nothing reads has no fresh effect, so no
            # recorded value; any natural replays the same run
            value = 0 if step.fresh_value is None else step.fresh_value
            labels.append(Label(tname, delta, value=value))
        else:
            labels.append(Label(tname, delta))

    return replay(program, labels)
