"""Reachability over the combined abstraction, plus witness processing.

The search space pairs the summarized control state with a rank tuple over
the summary variables.  Far fewer of each occur than of their pairs (bakery(2)
at k=3 reaches 142,000 states from 2,764 control tuples and 3,522 rank
tuples), so each search interns control tuples, rank tuples and effect lists
to integer ids and stores a state as a rank id in the set of its control id
(collapse compression, as in SPIN).  The public key encoding
(relabs.canonical_key, the control tuple followed by the rank tuple) is
checked once per new control tuple; a concatenation splits back at the
control length whatever the rank tuple, so a new rank tuple costs one
dictionary lookup and nothing more.

Many rank tuples share one control state, and a control state's successors
(labels, effect lists, successor control, whether it hits the target) do not
depend on the ranks.  So each search computes them once per control state
and reuses them for every rank tuple paired with it.  Likewise the rank
step depends only on the rank tuple and the effect list: its result is
memoized per effect list in an int array indexed by rank id, which holds
the one successor rank id inline, or points into a side list of branching
results (none, or several after a fresh value).  Both tables live only as
long as that search.  A memo miss runs the effect list's rank kernel
(relabs.rank_kernel, fetched once when the list is interned), or rel_apply
for a list with a fresh value, which may branch.  A single result that is
the input tuple object itself keeps its rank id with no lookup, and a moved
one is interned with one lookup.

Within each schedule the search runs level by level (level-synchronous
breadth-first search).  A level maps each control id to its batch of rank
ids, and holds the control ids in the order in which they first received a
new state.  Each move of a control state is applied to its whole batch at
once: the batch reads the move's memo row, only the entries not computed
yet run the miss path, and the successor rank ids not yet seen with the
successor control id (one set per control id) join its batch in the next
level.  Within a level, the batches of the control states with a move to
the target are probed first, in level order, with those moves alone.  The
first whose moves yield any state ends the search at the least (control
tuple, rank tuple) among the states it yields, and states_explored is the
states of the earlier levels plus the batches probed up to and including
that one.  Otherwise every batch is expanded in level order, and each
counts in states_explored once.  peak_frontier is the largest level, the
root level never counted.  max_states is checked after each control
state's batch, so a search may store up to one batch's new states past the
cap.  The memory cap is sampled after a batch, every 4,096 explored states
or so.

No parent pointers are stored.  A reachable verdict keeps the levels of the
hitting schedule and walks them backward: each state's parent is the least
(control tuple, rank tuple, move index) in the level before (for the
target, in the hitting batch) whose move yields it.  Every batch of those
levels was applied to every move that can yield a state there, so the walk
reads the memo entries the search filled and runs no rank step.  The
verdict, states_explored, peak_frontier and the witness depend only on
which rank ids each batch holds, never on the order a set yields them.

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

import time
from array import array
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from .abmachine import R_BUF_ARW, R_MEM_ARW, R_SWITCH, R_WRITE, AbMachine, ab_machine
from .model import LT, OP_FRESH, Program, Target, eval_rel
from .relabs import (
    abstract_of, canonical_key, decode_key, key_length, rank_kernel, rel_apply,
    rel_initial,
)
from .tso import Label, Run, replay
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE, Stats, Verdict, _rss_mb,
)


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


# memo entries of check_reach: not computed yet, and the branches offset
_UNKNOWN = -1
_BRANCH = -2


def _seed_order(m: AbMachine, tti: int) -> Iterator[tuple[int, ...]]:
    """The context schedules to search: with two or more threads, the
    repeat-free length-k schedules that end on the target thread, in
    lexicographic order.

    This loses no run.  A hit is a step of the target thread, so cut a
    reaching run at its hit: it has at most k maximal blocks, no two
    neighbours share a thread, and the last block is the target's.  It
    embeds into a repeat-free length-k schedule ending on the target by
    leading empty contexts, because a switch is enabled in every state with
    j < k.  A write the run flushed after the target's last context becomes
    a write that never commits, which the machine offers too.

    The schedules are generated lazily, so a cap can end the search before a
    large k has enumerated them all.
    """
    k, nt = m.k, m.nt
    if nt == 1:
        yield (0,) * k
        return

    def walk(prefix: tuple[int, ...]):
        # depth first in lexicographic order over repeat-free schedules
        for t in range(nt):
            if prefix and t == prefix[-1]:
                continue
            act = prefix + (t,)
            if len(act) < k:
                yield from walk(act)
            elif t == tti:
                yield act

    yield from walk(())


def check_reach(program: Program, target: Target, k: int,
                max_states: int = 2_000_000,
                max_mb: Optional[float] = None) -> Verdict:
    """Decide reachability of the target within k contexts.

    The combined state space is finite, so with no caps hit the negative
    answer is definitive for this k.  Search order is deterministic:
    schedules in the _seed_order (those ending on the target thread),
    level by level within each (see the module docstring).  The seen set is
    shared across schedules; converging runs are explored once.

    A one-thread program is searched at k=1: its buffer updates are its own
    steps, so a run within k contexts exists iff one exists within one.  The
    limit on k still applies to the k asked for, and the witness is then a
    one-context run, which fits in any k.
    """
    m = ab_machine(program, k)
    if m.nt == 1 and k > 1:
        k = 1
        m = ab_machine(program, k)
    tti, tsi = m.idx.target_idx(target)
    flen = m.flat_len
    klen = key_length(program, k)
    stats = Stats()
    start = time.perf_counter()

    r0 = rel_initial(m.nab)
    # the interned parts of a state: control tuples by cid, rank tuples by
    # rid and effect lists by eid, each a list plus a dict
    ctrls: list[tuple[int, ...]] = []
    ctrl_id: dict[tuple[int, ...], int] = {}
    ranks: list[tuple[int, ...]] = []
    rank_id: dict[tuple[int, ...], int] = {}
    effs: list[tuple] = []
    eff_id: dict[tuple, int] = {}
    # per eid, the list's rank kernel, or None for a list with a fresh value
    kernels: list[Optional[Callable]] = []
    # per cid, once expanded: its moves [(label, eid, successor cid)] in
    # table order, split into those that miss and those that hit the target
    succ: list[Optional[tuple[list, list]]] = []
    # per eid, the rank step by rid: _UNKNOWN, the one successor rid, or
    # _BRANCH - i for the successor rids branches[i] (none or several)
    memo: list[array] = []
    branches: list[tuple[int, ...]] = [()]
    # per cid, the rids seen with it in this search
    seen: list[set[int]] = []

    def intern_ctrl(flat: tuple[int, ...]) -> int:
        cid = ctrl_id.get(flat)
        if cid is None:
            key = canonical_key(flat, r0)
            if len(key) != klen or decode_key(flen, key) != (flat, r0):
                raise AssertionError(f"control state {flat} has no canonical key")
            cid = ctrl_id[flat] = len(ctrls)
            ctrls.append(flat)
            succ.append(None)
            seen.append(set())
        return cid

    def intern_ranks(r: tuple[int, ...]) -> int:
        rid = rank_id.get(r)
        if rid is None:
            rid = rank_id[r] = len(ranks)
            ranks.append(r)
        return rid

    def expand(cid: int) -> tuple[list, list]:
        stats.control_states += 1
        moves: tuple[list, list] = ([], [])
        for core, eff, flat2 in m.transitions_flat(ctrls[cid]):
            eid = eff_id.get(eff)
            if eid is None:
                eid = eff_id[eff] = len(effs)
                effs.append(eff)
                kernels.append(rank_kernel(eff))
                memo.append(array("i"))
            moves[flat2[m.ST + tti] == tsi].append((core, eid, intern_ctrl(flat2)))
        return moves

    # bound once per search: step calls it on every memo miss of a list
    # with a fresh value
    apply = rel_apply
    misses = 0

    def step(eid: int, rids: list[int]) -> list[int]:
        """The successor rids of a batch under one effect list, in batch
        order with branches expanded; only _UNKNOWN memo entries run the
        list's kernel, or rel_apply for a list with a fresh value."""
        nonlocal misses
        row = memo[eid]
        if len(row) < len(ranks):
            row.fromlist([_UNKNOWN] * (len(ranks) - len(row)))
        entries = list(map(row.__getitem__, rids))
        unknown = entries.count(_UNKNOWN)
        if unknown:
            misses += unknown
            kernel = kernels[eid]
            for i, entry in enumerate(entries):
                if entry != _UNKNOWN:
                    continue
                rid = rids[i]
                r = ranks[rid]
                if kernel is None:
                    out = apply(r, effs[eid])
                    # a single successor is stored inline, as a kernel's
                    r2 = out[0] if len(out) == 1 else None
                else:
                    out = ()
                    r2 = kernel(r)
                if r2 is r:
                    # a kernel hands back the input tuple itself when
                    # nothing moved
                    entry = rid
                elif r2 is not None:
                    # one lookup, whether r2 is new or not
                    n = len(ranks)
                    entry = rank_id.setdefault(r2, n)
                    if entry == n:
                        ranks.append(r2)
                elif out:
                    entry = _BRANCH - len(branches)
                    branches.append(tuple(map(intern_ranks, out)))
                else:
                    entry = _BRANCH
                row[rid] = entries[i] = entry
        if min(entries) >= 0:
            return entries
        kids = [entry for entry in entries if entry >= 0]
        for entry in entries:
            if entry < _BRANCH:
                kids.extend(branches[_BRANCH - entry])
        return kids

    def filled(eid: int, rid: int) -> tuple[int, ...]:
        """The successor rids the search stored for (eid, rid)."""
        entry = memo[eid][rid]
        if entry == _UNKNOWN:
            raise AssertionError(f"witness step from rank id {rid} reads an "
                                 "unfilled memo entry")
        return (entry,) if entry >= 0 else branches[_BRANCH - entry]

    def parent(into: dict[int, set[int]], batches: dict[int, list[int]],
               cid2: int, rid2: int) -> tuple[int, int, tuple, int]:
        """(cid, rid, label, eid) of the least (control tuple, rank tuple,
        move index) in batches whose move's filled memo entry yields the
        state (cid2, rid2); into maps a cid to the cids with a move to it.
        The moves into cid2 all hit the target or all miss it, so their
        index in one part of succ keeps their table order."""
        for cid in sorted((c for c in into[cid2] if c in batches),
                          key=ctrls.__getitem__):
            moves = [(j, core, eid) for part in succ[cid]
                     for j, (core, eid, c) in enumerate(part) if c == cid2]
            best = min(((ranks[rid], j, rid, core, eid) for rid in batches[cid]
                        for j, core, eid in moves if rid2 in filled(eid, rid)),
                       default=None)
            if best is not None:
                return cid, best[2], best[3], best[4]
        raise AssertionError(f"state ({cid2}, {rid2}) has no parent in its level")

    def finish(status: str, explored: int, peak: int, stop: str = "",
               target: tuple[int, int] = (-1, -1), walk: list = ()) -> Verdict:
        """The verdict.  A reachable one names its target state and the
        batches to walk back through, the hitting batch first."""
        stats.states_explored, stats.peak_frontier = explored, peak
        stats.rel_apply_calls, stats.stop_reason = misses, stop
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        stats.rank_tuples = len(ranks)
        witness = None
        if status == REACHABLE:
            into: dict[int, set[int]] = {}
            for cid, moves in enumerate(succ):
                for part in moves or ():
                    for _, _, c in part:
                        into.setdefault(c, set()).add(cid)
            cid2, rid2 = target
            steps = []
            for batches in walk:
                cid, rid, core, eid = parent(into, batches, cid2, rid2)
                steps.append(WitnessStep(core, effs[eid], ranks[rid2]))
                cid2, rid2 = cid, rid
            root = ctrls[cid2]
            act = tuple(m.idx.thread_ids[t] for t in root[m.ACT:m.ACT + k])
            witness = Witness(k, act, tuple(reversed(steps)))
        return Verdict(status == REACHABLE, status, witness, stats)

    explored = peak = 0
    # new states the cap admits past the finished levels; the search stops
    # when a level outgrows it
    room = max_states
    # the explored count at which the resident memory is next sampled
    sample_at = 4096
    for act in _seed_order(m, tti):
        flat = m.initial_flat(act)
        cid, rid = intern_ctrl(flat), intern_ranks(r0)
        if rid in seen[cid]:
            continue
        seen[cid].add(rid)
        room -= 1
        if flat[m.ST + tti] == tsi:
            return finish(REACHABLE, explored, peak, target=(cid, rid))
        # per level of this schedule, each cid's batch of rids
        levels = [{cid: [rid]}]
        while True:
            level = levels[-1]
            # the batches with a move to the target go first, in level
            # order, and the first whose hit moves yield a state ends the
            # search at the least of those states
            probed = 0
            for cid, rids in level.items():
                if succ[cid] is None:
                    succ[cid] = expand(cid)
                hits = succ[cid][1]
                if not hits:
                    continue
                probed += len(rids)
                found = [(cid2, rid2) for _, eid, cid2 in hits
                         for rid2 in step(eid, rids)]
                if found:
                    return finish(REACHABLE, explored + probed, peak,
                                  target=min(found, key=lambda s: (ctrls[s[0]],
                                                                   ranks[s[1]])),
                                  walk=[{cid: rids}] + levels[-2::-1])
            nxt: dict[int, list[int]] = {}
            size = 0
            for cid, rids in level.items():
                explored += len(rids)
                for _, eid, cid2 in succ[cid][0]:
                    kids = step(eid, rids)
                    if not kids:
                        continue
                    have = seen[cid2]
                    new = set(kids) - have
                    if new:
                        have |= new
                        size += len(new)
                        batch = nxt.get(cid2)
                        if batch is None:
                            nxt[cid2] = list(new)
                        else:
                            batch.extend(new)
                if size > room:
                    # checked once per batch, which may overshoot the cap
                    return finish(BOUND_EXHAUSTED, explored, peak, "max_states")
                if max_mb is not None and explored >= sample_at:
                    sample_at = explored + 4096
                    if _rss_mb() > max_mb:
                        return finish(BOUND_EXHAUSTED, explored, peak, "max_mb")
            if not nxt:
                break
            room -= size
            peak = max(peak, size)
            levels.append(nxt)
    return finish(UNREACHABLE, explored, peak)


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
            if tag == "copy":
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
        try:
            eff, flat2 = m.apply_flat(flat, step.label)
            vals2 = m.apply_effects(vals, eff, step.fresh_value)
        except ValueError as e:
            # a label not enabled, a failing guard, or a fresh step without
            # a natural value
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
