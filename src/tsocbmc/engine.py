"""Reachability over the combined abstraction, plus witness processing.

The search space pairs the summarized control state with a rank tuple over
the summary variables.  Far fewer of each occur than of their pairs (bakery(2)
at k=3 reaches 142,000 states from 2,764 control tuples and 3,522 rank
tuples), so each search interns control tuples, rank tuples and effect lists
to integer ids and stores a state as a rank id in the set of its control id
(collapse compression, as in SPIN).  Rank tuples are interned as bytes
when the machine has at most 256 summary columns: ranks are dense, so each
is below the column count and fits in a byte.  A bytes object of n ranks
takes 33 + n bytes against a tuple's 40 + 8n, and keeps its hash once
computed; bytes compare as the tuples of their values do, so the least
state is the same in either form.  Past 256 columns the ranks stay tuples
of ints.  Control tuples are interned in the machine's control form (see
abmachine), and the tables below hold their cells in the same form.  Each
rank id has one int object, kept in a list beside the rank tuples: a
kernel returns it for a stored successor in place of the int it reads
from the memo row, which past 256 would be a new object each time, so
every seen set, level and memo result holding an id holds the shared
object (collapse compression again).  The witness and the public
functions see tuples only.  The public key encoding (relabs.canonical_key,
the control tuple followed by the rank tuple) is checked once per new
control tuple; a concatenation splits back at the control length whatever
the rank tuple, so a new rank tuple costs one dictionary lookup and
nothing more.

Many rank tuples share one control state, and a control state's successors
(labels, effect lists, successor control, whether it hits the target) do
not depend on the ranks.  So each search computes them once per control
state and reuses them for every rank tuple paired with it.  Most of that
work is shared between control states too: only the active thread moves,
and what it reads (see abmachine) is a small part of the control tuple.
Each search keeps two tables, keyed as AbMachine.table_keys says: per move
key, the thread's moves as (label, effect list id, the cells the move
writes), and per switch key, the switch's label, effect list id and
rewrite.  A missing entry is filled by one transitions_flat call on the
first control state with its key.  Every control state then gets its
successors in its packed form (AbMachine.spliced), each move's cells
spliced into it and its switch entry's rewrite applied, and interns them
as they are.  bakery(2) k=3 expands 2,764 control states and fills 230
move and 59 switch entries.  Likewise the rank step depends only on the
rank tuple and the effect list, and each search memoizes it in one memo
row per list, indexed by rank id.  Each list's memo lookup is its rank
kernel (relabs.rank_kernel, compiled for the search's rank form and
fetched once when the list is interned).  It takes a whole batch, returns
each known successor without a step, and computes only the entries not
computed yet: it fills them and interns the new tuples itself, a rank id
whose tuple nothing moved kept with no lookup and a moved tuple costing
one.  A list with at most one successor has an int array row, holding the
successor rank id or one of relabs' markers UNKNOWN and NO_SUCCESSOR.  A
list with a fresh value branches, and its row is a list holding None or
the tuple of its successor rank ids.  rel_apply checks the generated
code: in each search, the first entry each list's kernel computes is
computed again by rel_apply, and a difference in the successors or their
order raises AssertionError.  These tables live only as long as that
search.

Within each schedule the search runs level by level (level-synchronous
breadth-first search).  A level maps each control id to its batch of rank
ids, and holds the control ids in the order in which they first received a
new state.  Each move of a control state is applied to its whole batch at
once, in one call of the list's memo lookup, and the successor rank ids
not yet seen with the successor control id (one set per control id) join
its batch in the next level.  Within a level, the
batches of the control states with a move to the target are probed first,
in level order, with those moves alone.  The first whose moves yield any
state ends the search at the least (control tuple, rank tuple) among the
states it yields, and states_explored is the states of the earlier levels
plus the batches probed up to and including that one.  Otherwise every
batch is expanded in level order, and each counts in states_explored once.
peak_frontier is the largest level, the root level never counted.
max_states is checked after each control state's batch, so a search may
store up to one batch's new states past the cap.  The memory cap is sampled
after a batch, every 4,096 explored states or so.

No parent pointers are stored.  A reachable verdict keeps the levels of the
hitting schedule and walks them backward: each state's parent is the least
(control tuple, rank tuple, move index) in the level before (for the
target, in the hitting batch) whose move yields it.  Every batch of those
levels was applied to every move that can yield a state there, so the walk
reads the memo entries the search filled and runs no rank step: it sorts
only the control states with a move into the child, and reads each such
move's memo row for their whole batch.  The
verdict, states_explored, peak_frontier and the witness depend only on
which rank ids each batch holds, never on the order a set yields them.

A positive verdict carries an abstract witness: per step, the machine's own
label and effect tuples (see abmachine) and the rank tuple after the step;
the machine renders them for reports.  From it we can

  * concretize: keep every drawn value as a point in one order, then
    number the points N + 1 apart, N the largest guard offset, so each
    strict rank gap covers every offset, and
  * reconstruct a plain store-buffer run whose context blocks match the
    abstract schedule, flushing each buffered write at the end of its
    chosen context.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import deque
from typing import Callable, Iterator, Optional

from ._record import record
from .abmachine import R_BUF_ARW, R_MEM_ARW, R_SWITCH, R_WRITE, AbMachine, ab_machine
from .model import OP_FRESH, Program, Target
from .relabs import (
    NO_SUCCESSOR, UNKNOWN, abstract_of, branches, canonical_key, decode_key,
    key_length, rank_kernel, rel_apply, rel_initial,
)
from .tso import Label, Run, replay
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE, Stats, Verdict, _rss_mb,
)


@record
class WitnessStep:
    label: tuple              # core label (rule, thread, position, ctx)
    effects: tuple            # core effects over summary columns
    rel_after: tuple[int, ...]


@record
class Witness:
    k: int
    act: tuple[str, ...]
    steps: tuple[WitnessStep, ...]


@record
class ConcreteStep:
    label: tuple              # core label, as in WitnessStep
    fresh_value: Optional[int]
    values: tuple[int, ...]   # summary-variable values after the step


@record
class ConcreteRun:
    k: int
    act: tuple[str, ...]
    steps: tuple[ConcreteStep, ...]


# grows a memo row by one entry not computed yet: an int array row of a
# list with at most one successor, a list row of a branching one
_UNKNOWN_ROW = array("i", [UNKNOWN])
_UNSET_ROW = [None]
# the width of a memo entry and the offset of its top byte
_ENTRY = _UNKNOWN_ROW.itemsize
_TOP = _ENTRY - 1 if sys.byteorder == "little" else 0


def _checked(kernel: Callable, effects: tuple, kernels: list, eid: int) -> Callable:
    """kernel, which on its first call puts itself back in kernels[eid] and
    checks the first entry it computed against rel_apply: the successor
    tuples and their order.  The first call of a list's kernel in a search
    finds its row unfilled, so that entry is the batch's first."""
    def first(rids, ranks, ids, rank_id, row):
        kids = kernel(rids, ranks, ids, rank_id, row)
        kernels[eid] = kernel
        rid = rids[0]
        entry = row[rid]
        if type(row) is not list:
            entry = () if entry == NO_SUCCESSOR else (entry,)
        got = [tuple(ranks[e]) for e in entry]
        want = [tuple(r) for r in rel_apply(ranks[rid], effects)]
        if got != want:
            raise AssertionError(f"rank kernel of {effects} steps {tuple(ranks[rid])} "
                                 f"to {got}, rel_apply to {want}")
        return kids
    return first


def _seed_order(m: AbMachine, tti: int) -> Iterator[tuple[int, ...]]:
    """The context schedules to search: the repeat-free length-k schedules
    that end on the target thread, in lexicographic order.

    This loses no run.  A hit is a step of the target thread, so cut a
    reaching run at its hit: it has at most k maximal blocks, no two
    neighbours share a thread, and the last block is the target's.  It
    embeds into a repeat-free length-k schedule ending on the target by
    leading empty contexts, because a switch is enabled in every state with
    j < k.  A write the run flushed after the target's last context becomes
    a write that never commits, which the machine offers too.

    One thread has such a schedule only at k = 1, where check_reach
    searches it.  The schedules are generated lazily, so a cap can end the
    search before a large k has enumerated them all.
    """
    k, nt = m.k, m.nt

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
    target_at = m.ST + tti
    flen = m.flat_len
    klen = key_length(program, k)
    stats = Stats()
    start = time.perf_counter()

    r0 = rel_initial(m.nab)
    # rank tuples as bytes up to 256 columns, tuples of ints past that (see
    # the module docstring); the kernels are compiled for that form
    pack = bytes if m.nab <= 256 else tuple
    # the interned parts of a state: control tuples by cid, rank tuples by
    # rid (r0 first) and effect lists by eid, each a list plus a dict; ids
    # holds each rid's one int object, the one rank_id maps its tuple to
    ctrls: list = []
    ctrl_id: dict = {}
    ranks: list = [pack(r0)]
    ids: list[int] = [0]
    rank_id: dict = {ranks[0]: ids[0]}
    effs: list[tuple] = []
    eff_id: dict[tuple, int] = {}
    # per eid, the list's memo lookup: its rank kernel (see the relabs
    # module docstring), checked on its first call
    kernels: list[Callable] = []
    # per cid, once expanded: its moves [(label, eid, successor cid)] in
    # table order, split into those that miss and those that hit the target
    succ: list[Optional[tuple[list, list]]] = []
    # the keyed tables (see AbMachine.table_keys): the thread's moves
    # [(label, eid, cells)] per move key, (label, eid, rewrite) per switch key
    move_table: dict = {}
    switch_table: dict = {}
    # per eid, the memo row by rid (see relabs.rank_kernel): an int array
    # of UNKNOWN, NO_SUCCESSOR or the successor rid for a list with at most
    # one successor, a list of None or the successor rids' tuple for a
    # branching one
    memo: list = []
    # per cid, the rids seen with it in this search
    seen: list[set[int]] = []

    def intern_ctrl(packed) -> int:
        cid = ctrl_id.get(packed)
        if cid is None:
            flat = tuple(packed)
            key = canonical_key(flat, r0)
            if len(key) != klen or decode_key(flen, key) != (flat, r0):
                raise AssertionError(f"control state {flat} has no canonical key")
            cid = ctrl_id[packed] = len(ctrls)
            ctrls.append(packed)
            succ.append(None)
            seen.append(set())
        return cid

    def intern_eff(eff: tuple) -> int:
        eid = eff_id.get(eff)
        if eid is None:
            eid = eff_id[eff] = len(effs)
            effs.append(eff)
            kernels.append(_checked(rank_kernel(eff, pack), eff, kernels, eid))
            memo.append([] if branches(eff) else array("i"))
        return eid

    def expand(cid: int) -> tuple[list, list]:
        stats.control_states += 1
        s = ctrls[cid]
        mkey, skey = m.table_keys(s)
        mv = move_table.get(mkey)
        sw = switch_table.get(skey)
        if mv is None or sw is None and skey is not None:
            # one transitions_flat call fills whichever entry is missing;
            # its last entry is the switch, when j < k
            mv2 = m.transitions_flat(s)
            sw2 = mv2.pop() if skey is not None else None
            if mv is None:
                mv = move_table[mkey] = [(core, intern_eff(eff), cells)
                                         for core, eff, cells in mv2]
            if sw is None and skey is not None:
                core, eff, rewrite = sw2
                sw = switch_table[skey] = (core, intern_eff(eff), rewrite)
        moves: tuple[list, list] = ([], [])
        for core, eid, s2 in m.spliced(s, mv, sw):
            moves[s2[target_at] == tsi].append((core, eid, intern_ctrl(s2)))
        return moves

    def step(eid: int, rids: list[int]) -> list[int]:
        """The successor rids of a batch under one effect list, in batch
        order: the list's memo lookup, on its row grown to every rid."""
        row = memo[eid]
        grow = len(ranks) - len(row)
        if grow > 0:
            row.extend((_UNSET_ROW if type(row) is list else _UNKNOWN_ROW) * grow)
        return kernels[eid](rids, ranks, ids, rank_id, row)

    def parent(batches: dict[int, list[int]], cid2: int,
               rid2: int) -> tuple[int, int, tuple, int]:
        """(cid, rid, label, eid) of the least (control tuple, rank tuple,
        move index) in batches whose move's filled memo entry yields the
        state (cid2, rid2); only a cid with a move into cid2 is sorted.
        The moves into cid2 all hit the target or all miss it, so their
        index in one part of succ keeps their table order."""
        into = {}
        for cid in batches:
            moves = [(j, core, eid) for part in succ[cid]
                     for j, (core, eid, c) in enumerate(part) if c == cid2]
            if moves:
                into[cid] = moves
        for cid in sorted(into, key=ctrls.__getitem__):
            rids = batches[cid]
            best = None
            for j, core, eid in into[cid]:
                row = memo[eid]
                entries = [row[rid] for rid in rids]
                branching = type(row) is list
                if (None if branching else UNKNOWN) in entries:
                    raise AssertionError(f"witness step into ({cid2}, {rid2}) "
                                         "reads an unfilled memo entry")
                for rid, e in zip(rids, entries):
                    if ((rid2 in e) if branching else e == rid2) and (
                            best is None or (ranks[rid], j) < best[0]):
                        best = (ranks[rid], j), rid, core, eid
            if best is not None:
                return cid, best[1], best[2], best[3]
        raise AssertionError(f"state ({cid2}, {rid2}) has no parent in its level")

    def finish(status: str, explored: int, peak: int, stop: str = "",
               target: tuple[int, int] = (-1, -1), walk: list = ()) -> Verdict:
        """The verdict.  A reachable one names its target state and the
        batches to walk back through, the hitting batch first."""
        stats.states_explored, stats.peak_frontier = explored, peak
        # every memo miss filled one entry; an int array row's UNKNOWN
        # entries are those whose top byte is 0xFF (see relabs.UNKNOWN)
        stats.rel_apply_calls = sum(
            len(row) - (row.count(None) if type(row) is list
                        else row.tobytes()[_TOP::_ENTRY].count(255))
            for row in memo)
        stats.stop_reason = stop
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        stats.rank_tuples = len(ranks)
        stats.move_keys = len(move_table) + len(switch_table)
        witness = None
        if status == REACHABLE:
            cid2, rid2 = target
            steps = []
            for batches in walk:
                cid, rid, core, eid = parent(batches, cid2, rid2)
                steps.append(WitnessStep(core, effs[eid], tuple(ranks[rid2])))
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
        # a root is always new: a state with j = 1 keeps its schedule's act
        # entries, and each schedule stores its root first
        cid, rid = intern_ctrl(m.control_form(flat)), 0  # r0 is rank id 0
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
    """Assign actual naturals to an abstract witness, in two passes.

    A drawn value never changes, so the first pass keeps every value as a
    point in one order, the sentinel's point lowest.  A fresh value that
    joins a class of the step's rank tuple takes that class's point;
    otherwise it becomes a new point right after the point of the class
    below it.  Dead points keep their place, so the live values stay in
    rank order at every step.  The second pass numbers the points in order,
    N + 1 apart where N is the largest guard offset in the witness, so every
    strict rank gap covers every offset, and replays each step on those
    values.
    """
    m = ab_machine(program, witness.k)
    order = [0]                     # point ids, lowest value first
    pts = [0] * m.nab               # each column's point
    drawn: list[Optional[int]] = []  # per step, the drawn value's point
    gap = 1
    for n, step in enumerate(witness.steps):
        d = None
        for i, eff in enumerate(step.effects):
            if eff[0] == "copy":
                pts[eff[1]] = pts[eff[2]]
            elif eff[0] == "guard":
                gap = max(gap, eff[1].n + 1)
            elif d is None and all(e[0] == "copy" and e[2] == 0
                                   for e in step.effects[i + 1:]):
                # the placement reads the ranks of the step's final values; a
                # later effect may only zero a column, to the sentinel's rank
                d = eff[1]
            else:
                raise ConcretizationError(f"step {n}: fresh may only be "
                                          "followed by resets")
        point = None
        if d is not None:
            ra = step.rel_after
            cls = {ra[i]: pts[i] for i in range(m.nab) if i != d}
            if ra[d] in cls:
                point = cls[ra[d]]
            elif ra[d] - 1 in cls:
                point = len(order)
                order.insert(order.index(cls[ra[d] - 1]) + 1, point)
            else:
                raise ConcretizationError(f"step {n}: fresh placed below "
                                          "the sentinel")
            pts[d] = point
        drawn.append(point)

    value = {p: i * gap for i, p in enumerate(order)}
    vals = (0,) * m.nab
    steps = []
    for n, (step, p) in enumerate(zip(witness.steps, drawn)):
        fresh = None if p is None else value[p]
        try:
            vals = m.apply_effects(vals, step.effects, fresh)
        except ValueError as e:
            raise ConcretizationError(f"step {n}: {e}") from e
        if abstract_of(vals) != step.rel_after:
            raise ConcretizationError(f"step {n}: concrete replay left the "
                                      "witness ranks")
        steps.append(ConcreteStep(step.label, fresh, vals))
    return ConcreteRun(witness.k, witness.act, tuple(steps))


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
