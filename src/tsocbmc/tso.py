"""Concrete TSO semantics with per-thread FIFO store buffers.

A configuration holds per-thread control states, register values, per-thread
store buffers (FIFO sequences of (variable, value) entries) and the shared
memory.  Writes append to the issuing thread's buffer; a separate update step
pops the oldest entry into memory.  Reads take the newest buffered entry on
the variable if one exists, otherwise memory.  Atomic read-writes require an
empty buffer.

The exploration functions are explicit-state BFS over a finite slice of the
infinite system: `Bounds` fixes the buffer capacity, the value pool drawn by
`r := *`, and the run length.  Verdicts are three-valued: a `reachable`
verdict is exact, `unreachable_within_bounds` only speaks about the slice,
and `bound_exhausted` means a resource cap was hit first.

`cb_reach_bounded` additionally restricts runs to at most k contexts: maximal
blocks of steps (operations and buffer updates alike) by a single thread.
One split of a run's labels into those blocks, `_blocks`, serves both
`cb_partition_check` and `normalize_updates`.

There is one enumeration and one reference step.  `_thread_moves` yields a
thread's enabled moves, in a fixed order, from the thread's own part (its
control state, its register slice and its buffer) and the memory, each with
the thread's new part and the new memory; `tso_enabled` is the labels of
those moves.  `thread_step` takes the same part, the memory and a label,
resolves the label's operation by value and returns the thread's new part
and the new memory, or raises NotEnabledError; `tso_step` runs it on the
label's thread and splices the result into the configuration, so a label
need not come from `tso_enabled`.  Both read the program index directly: a
thread's moves from a state in declaration order, the operand record of
each operation (see model.operands) and each thread's register slice.  A
step reads and writes only its own thread's part and the memory.

The searches compress configurations (collapse compression, as in SPIN):
far fewer thread-local parts and memories occur than configurations
(bakery(2) at k=4 reaches 194,616 configurations from 5,497 (thread, local
part, memory) triples).  Each search interns every thread's local part and
the memory tuple to dense ids and stores a configuration as one int of
fixed-width fields, the extras (active thread and blocks used) lowest.
Since a thread's moves depend on its local part and the memory alone, they
are enumerated once per (thread, local id, memory id) on the interned part,
and a move table keeps their successor ids for the rest of the search.
Which threads may move, and the extras after each one's move, depend on the
extras alone; a mover table per extras value, built when the value first
occurs, holds them, and the search loop walks it and the move tables
inline.  The visited set maps each state to its parent alone.  The witness
decodes each parent and child and names the step between them by the
reference step: the first label of `tso_enabled` on the parent, by the
thread whose move leads to the child's extras, that `tso_step` takes to the
child.  So every reachable verdict checks the search's successors along its
witness against `thread_step`.
"""
from __future__ import annotations

import time
from itertools import groupby
from operator import attrgetter
from typing import Optional

from ._record import record
from .model import (
    OP_ARW, OP_ASSIGN, OP_FRESH, OP_GUARD, OP_READ, OP_WRITE, ON_SHARED,
    ModelTooLargeError, Program, ProgramIndex, Target, Transition, eval_rel,
    operands, program_index,
)
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE_WITHIN_BOUNDS, Stats, Verdict,
    _rss_mb,
)


@record
class Bounds:
    buffer_bound: int
    domain_bound: int
    depth: int

    def __post_init__(self) -> None:
        if self.buffer_bound < 0 or self.domain_bound < 0 or self.depth < 0:
            raise ValueError("bounds must be naturals")
        if self.domain_bound > 250:
            raise ValueError("domain_bound above the desk-scale limit of 250")


@record
class TsoConfig:
    """st/rval/mem are indexed by the program's interning order."""
    st: tuple[int, ...]
    rval: tuple[int, ...]
    buf: tuple[tuple[tuple[int, int], ...], ...]
    mem: tuple[int, ...]


@record
class Label:
    """One step: either a program transition of a thread (with the chosen
    value for `r := *`) or the update marker (delta is None) that commits the
    thread's oldest buffered write to memory."""
    thread: str
    delta: Optional[Transition]
    value: Optional[int] = None

    @property
    def is_update(self) -> bool:
        return self.delta is None

    def render(self) -> str:
        if self.delta is None:
            return f"{self.thread}: update"
        s = f"{self.thread}: {self.delta.src} -> {self.delta.dst} : {self.delta.op.render()}"
        if self.value is not None:
            s += f" = {self.value}"
        return s


@record
class Run:
    initial: TsoConfig
    steps: tuple[tuple[Label, TsoConfig], ...]

    @property
    def final(self) -> TsoConfig:
        return self.steps[-1][1] if self.steps else self.initial

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(l for l, _ in self.steps)


class NotEnabledError(ValueError):
    pass


def initial_config(program: Program) -> TsoConfig:
    idx = program_index(program)
    return TsoConfig(
        st=tuple(idx.init_states),
        rval=(0,) * len(idx.regs),
        buf=((),) * len(idx.thread_ids),
        mem=(0,) * len(idx.vars),
    )


def _latest_buffered(buf: tuple[tuple[int, int], ...], x: int) -> Optional[int]:
    for var, val in reversed(buf):
        if var == x:
            return val
    return None


def _thread_moves(idx: ProgramIndex, ti: int, part: tuple,
                  mem: tuple[int, ...], b: Bounds):
    """Thread ti's enabled moves from its own part (as thread_step takes it)
    and the memory, in a fixed order: its transitions in declaration order
    (values ascending for `r := *`), then the update step.  Each move is
    (transition or None for the update, the drawn value or None, the
    thread's new part, the new memory)."""
    s, regs, buf = part
    lo, ops, sid = idx.reg_slices[ti].start, idx.ops[ti], idx.state_id[ti]
    for pos, tr in idx.out[ti][s]:
        kind, x, y, z = ops[pos]
        s2 = sid[tr.dst]
        if kind == OP_ASSIGN:
            yield tr, None, (s2, _put(regs, x - lo, regs[y - lo]), buf), mem
        elif kind == OP_READ:
            v = _latest_buffered(buf, x)
            yield tr, None, (s2, _put(regs, y - lo, mem[x] if v is None else v), buf), mem
        elif kind == OP_GUARD:
            if eval_rel(z, regs[x - lo], regs[y - lo]):
                yield tr, None, (s2, regs, buf), mem
        elif kind == OP_WRITE:
            if len(buf) < b.buffer_bound:
                yield tr, None, (s2, regs, buf + ((x, regs[y - lo]),)), mem
        elif kind == OP_FRESH:
            for v in range(b.domain_bound + 1):
                yield tr, v, (s2, _put(regs, x - lo, v), buf), mem
        elif not buf and mem[x] == regs[y - lo]:  # OP_ARW
            yield tr, None, (s2, regs, buf), _put(mem, x, regs[z - lo])
    if buf:
        x, v = buf[0]
        yield None, None, (s, regs, buf[1:]), _put(mem, x, v)


def tso_enabled(program: Program, c: TsoConfig, b: Bounds) -> list[Label]:
    """Enabled labels: the labels of each thread's moves by `_thread_moves`,
    the one enumeration, threads in declaration order.  Each call builds
    fresh Labels; `tso_step`, the one reference step, takes any of them."""
    idx = program_index(program)
    return [Label(tname, tr, v)
            for ti, (tname, sl) in enumerate(zip(idx.thread_ids, idx.reg_slices))
            for tr, v, _, _ in _thread_moves(idx, ti, (c.st[ti], c.rval[sl], c.buf[ti]),
                                             c.mem, b)]


def _put(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1:]


def thread_step(idx: ProgramIndex, ti: int, part: tuple,
                mem: tuple[int, ...], label: Label) -> tuple[tuple, tuple[int, ...]]:
    """Thread ti's step by `label` from its own part alone: part is (control
    state, the thread's register values in reg_slices order, its buffer),
    and the result is (the thread's new part, the new memory).  No other
    thread's part goes in, so none can change.  Raises NotEnabledError for a
    disabled label: a wrong source state, a false guard, a failing arw, an
    update of an empty buffer, `r := *` without a natural value, or an
    operation on a register the thread does not own.  The exploration
    bounds are not checked."""
    s, regs, buf = part
    tr = label.delta
    if tr is None:
        if not buf:
            raise NotEnabledError(f"{label.render()}: store buffer is empty")
        x, v = buf[0]
        return (s, regs, buf[1:]), _put(mem, x, v)
    sid = idx.state_id[ti]
    if s != sid[tr.src]:
        raise NotEnabledError(f"{label.render()}: thread is not at state {tr.src}")
    s = sid[tr.dst]
    kind, x, y, z = idx.resolve(tr.op)
    sl = idx.reg_slices[ti]
    lo, hi = sl.start, sl.stop
    for r in (y, z) if kind in ON_SHARED else (x, y):
        if r is not None and not lo <= r < hi:
            raise NotEnabledError(f"{label.render()}: register {idx.regs[r]} "
                                  f"is not thread {label.thread}'s")
    if kind == OP_READ:
        v = _latest_buffered(buf, x)
        return (s, _put(regs, y - lo, mem[x] if v is None else v), buf), mem
    if kind == OP_GUARD:
        if not eval_rel(z, regs[x - lo], regs[y - lo]):
            raise NotEnabledError(f"{label.render()}: guard is false")
        return (s, regs, buf), mem
    if kind == OP_WRITE:
        return (s, regs, buf + ((x, regs[y - lo]),)), mem
    if kind == OP_FRESH:
        if label.value is None or label.value < 0:
            raise NotEnabledError(f"{label.render()}: needs a natural value")
        return (s, _put(regs, x - lo, label.value), buf), mem
    if kind == OP_ASSIGN:
        return (s, _put(regs, x - lo, regs[y - lo]), buf), mem
    # OP_ARW
    if buf:
        raise NotEnabledError(f"{label.render()}: store buffer must be empty")
    if mem[x] != regs[y - lo]:
        raise NotEnabledError(f"{label.render()}: memory value differs from expected")
    return (s, regs, buf), _put(mem, x, regs[z - lo])


def tso_step(program: Program, c: TsoConfig, label: Label) -> TsoConfig:
    """Apply one label: thread_step on the label's thread, spliced back into
    the configuration, so it checks semantic enabledness but not the
    exploration bounds.  A label resolves by value: its thread by name, its
    transition's states by name in that thread, its operation through the
    program index."""
    idx = program_index(program)
    ti = idx.tid[label.thread]
    sl = idx.reg_slices[ti]
    (s, regs, buf), mem = thread_step(idx, ti, (c.st[ti], c.rval[sl], c.buf[ti]),
                                      c.mem, label)
    return TsoConfig(_put(c.st, ti, s), c.rval[:sl.start] + regs + c.rval[sl.stop:],
                     _put(c.buf, ti, buf), mem)


# --- the explicit search ----------------------------------------------------

def _intern(ids: dict, parts: list, part, width: int) -> int:
    """The dense id of `part`, which must fit in `width` bits."""
    i = ids.get(part)
    if i is None:
        i = ids[part] = len(parts)
        if i >> width:
            raise AssertionError(f"{part} does not fit a {width}-bit field")
        parts.append(part)
    return i


def _bfs(program: Program, target: Target, b: Bounds, max_states: int,
         contexts: Optional[int], max_mb: Optional[float]) -> Verdict:
    """Level-order search over interned parts.  With `contexts` set, a state
    carries the active thread and the count of maximal single-thread blocks
    used so far; steps by a different thread open a new block and are only
    allowed below the cap.  That rule lives in the mover table: per extras
    value, the threads allowed to move, each with the extras after its move,
    built the first time the value is seen.  The loop walks a popped state's
    movers and their move tables inline, and each new state stores its
    parent state.  A move table is filled by the one enumeration,
    `_thread_moves`, on the mover's interned part; a witness names its steps
    by the one reference step, `tso_step`, and so checks the table entries
    it passes through."""
    idx = program_index(program)
    # `bufs` below sums buffer_bound + 1 powers; the cap keeps that short
    if b.buffer_bound > 255:
        raise ModelTooLargeError(f"buffer bound {b.buffer_bound}, "
                                 "above the limit of 255")
    tti, tsi = idx.target_idx(target)
    start = time.perf_counter()
    stats = Stats()
    nt = len(idx.thread_ids)

    # A state is one int, low bits first: the extras (active thread + 1 in
    # aw bits, then the blocks used; no bits without contexts), the memory
    # id, then each thread's local id.  A field is as wide as the count of
    # its possible parts needs (every value lies in 0..domain_bound), and at
    # most 32 bits: more ids than that would not fit in memory.  The order
    # matters for speed through the visited dict's probe pattern: with the
    # extras and memory id moved to the top bits, bakery(2) k=4 ran 14%
    # slower, so time a layout change before making it.
    vals = b.domain_bound + 1
    bufs = sum((len(idx.vars) * vals) ** n for n in range(b.buffer_bound + 1))
    aw = nt.bit_length() if contexts is not None else 0
    moff = aw + (contexts.bit_length() if contexts is not None else 0)
    mw = min((vals ** len(idx.vars) - 1).bit_length(), 32)
    offs, lws = [], []
    off = moff + mw
    for t in program.threads:
        offs.append(off)
        lws.append(min((len(t.states) * vals ** len(t.regs) * bufs - 1).bit_length(), 32))
        off += lws[-1]
    xmask, amask, mmask = (1 << moff) - 1, (1 << aw) - 1, (1 << mw) - 1
    lmasks = [(1 << w) - 1 for w in lws]
    # a thread's move replaces its own local id, the memory id and the extras
    keeps = [~(lm << o | xmask | mmask << moff) for lm, o in zip(lmasks, offs)]

    # the interned parts: per thread its local parts (state, own register
    # values, buffer), and the memory tuples, each a list plus a dict
    locs: list[list] = [[] for _ in range(nt)]
    loc_ids: list[dict] = [{} for _ in range(nt)]
    mems: list[tuple[int, ...]] = []
    mem_ids: dict[tuple[int, ...], int] = {}
    # per thread, the move table: a state's bits of the thread's local id
    # and the memory id (the state masked by the key mask) -> (the deltas
    # local id' << offset | memory id' << moff of its moves, whether any
    # move puts the target thread at the target state)
    tables: list[dict[int, tuple]] = [{} for _ in range(nt)]
    threads = tuple(zip(range(nt), offs, lmasks, keeps, tables))
    # the mover table: extras -> ((thread, key mask, keep mask, move table,
    # extras after the move), ...) for the threads allowed to move
    movers: dict[int, tuple] = {}

    def mover(ex: int) -> tuple:
        """The threads allowed to move from a state with extras ex, in
        thread order: the active one, and the others while a block is left."""
        active, blocks = (ex & amask) - 1, ex >> aw
        ms = []
        for ti, o, lm, keep, table in threads:
            if contexts is None or ti == active:
                ex2 = ex
            elif blocks < contexts:
                ex2 = (ti + 1) | (blocks + 1) << aw
            else:
                continue
            ms.append((ti, lm << o | mmask << moff, keep, table, ex2))
        ms = movers[ex] = tuple(ms)
        return ms

    def fill(ti: int, s: int, key: int) -> tuple:
        """Thread ti's moves from state s, enumerated on its interned part
        and the memory alone."""
        stats.control_states += 1
        lids, parts, o = loc_ids[ti], locs[ti], offs[ti]
        deltas, hit = [], False
        for _, _, part2, mem2 in _thread_moves(idx, ti, parts[s >> o & lmasks[ti]],
                                               mems[s >> moff & mmask], b):
            deltas.append(_intern(lids, parts, part2, lws[ti]) << o
                          | _intern(mem_ids, mems, mem2, mw) << moff)
            hit = hit or ti == tti and part2[0] == tsi
        moves = tables[ti][key] = tuple(deltas), hit
        return moves

    def config(s: int) -> TsoConfig:
        st, rv, bf = zip(*(locs[ti][s >> o & lm] for ti, o, lm, _, _ in threads))
        return TsoConfig(st, sum(rv, ()), bf, mems[s >> moff & mmask])

    def label_of(s: int, s2: int) -> Label:
        """The step from s to its child s2: the first label of tso_enabled,
        by the thread whose move gives s2's extras, that tso_step takes from
        s's configuration to s2's.  The search kept s2's first discovery, the
        first such move in the same order, so this is the move it made."""
        tis = {ti for ti, _, _, _, ex2 in movers[s & xmask] if ex2 == s2 & xmask}
        c, c2 = config(s), config(s2)
        for label in tso_enabled(program, c, b):
            if idx.tid[label.thread] in tis and tso_step(program, c, label) == c2:
                return label
        # raised, not asserted, so that the check also runs under -O
        raise AssertionError(f"no enabled step leads from {c} to {c2}")

    init = initial_config(program)
    s0 = _intern(mem_ids, mems, init.mem, mw) << moff
    for ti, sl in enumerate(idx.reg_slices):
        part = init.st[ti], init.rval[sl], init.buf[ti]
        s0 |= _intern(loc_ids[ti], locs[ti], part, lws[ti]) << offs[ti]
    # state -> parent state, -1 at the root
    parents: dict[int, int] = {s0: -1}

    def finish(status: str, explored: int, peak: int, found: int = -1,
               stop: str = "") -> Verdict:
        stats.states_explored, stats.peak_frontier = explored, peak
        stats.stop_reason = stop
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        witness = None
        if found >= 0:
            chain = [found]
            while parents[chain[-1]] >= 0:
                chain.append(parents[chain[-1]])
            chain.reverse()
            witness = replay(program, [label_of(s, s2)
                                       for s, s2 in zip(chain, chain[1:])])
        return Verdict(found >= 0, status, witness, stats)

    if init.st[tti] == tsi:
        return finish(REACHABLE, 0, 0, s0)

    frontier = [s0]
    explored = peak = depth = 0
    # new states the cap still admits; the search stops when it goes negative
    room = max_states - len(parents)
    # a table that hits names no hitting move: read the target thread's
    # state from the new local id
    tlocs, toff, tlm = locs[tti], offs[tti], lmasks[tti]
    while frontier and depth < b.depth:
        depth += 1
        next_frontier: list[int] = []
        push = next_frontier.append
        for s in frontier:
            explored += 1
            if (max_mb is not None and not explored & 4095
                    and _rss_mb() > max_mb):
                return finish(BOUND_EXHAUSTED, explored, peak, stop="max_mb")
            ms = movers.get(s & xmask)
            if ms is None:
                ms = mover(s & xmask)
            for ti, kmask, keep, table, ex2 in ms:
                key = s & kmask
                moves = table.get(key)
                if moves is None:
                    moves = fill(ti, s, key)
                deltas, hit = moves
                base = s & keep | ex2
                for delta in deltas:
                    s2 = base | delta
                    if s2 in parents:
                        continue
                    parents[s2] = s
                    if hit and tlocs[delta >> toff & tlm][0] == tsi:
                        return finish(REACHABLE, explored, peak, s2)
                    room -= 1
                    if room < 0:
                        return finish(BOUND_EXHAUSTED, explored, peak,
                                      stop="max_states")
                    push(s2)
        frontier = next_frontier
        peak = max(peak, len(frontier))
    return finish(UNREACHABLE_WITHIN_BOUNDS, explored, peak,
                  stop="depth" if frontier else "")


def tso_reach_bounded(program: Program, target: Target, b: Bounds,
                      max_states: int = 1_000_000,
                      max_mb: Optional[float] = None) -> Verdict:
    """Shortest-witness BFS of the bounded TSO system.  `max_mb` caps the
    current resident memory, sampled every 4,096 states."""
    return _bfs(program, target, b, max_states, None, max_mb)


def cb_reach_bounded(program: Program, target: Target, k: int, b: Bounds,
                     max_states: int = 1_000_000,
                     max_mb: Optional[float] = None) -> Verdict:
    """Like tso_reach_bounded but restricted to runs of at most k contexts."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _bfs(program, target, b, max_states, k, max_mb)


def _blocks(labels: tuple[Label, ...]) -> list[list[Label]]:
    """The labels split into maximal single-thread blocks: the contexts."""
    return [list(block) for _, block in groupby(labels, attrgetter("thread"))]


def cb_partition_check(run: Run, k: int) -> bool:
    """True iff the run's labels form at most k maximal single-thread blocks."""
    return len(_blocks(run.labels)) <= k


def normalize_updates(program: Program, run: Run, k: int) -> Run:
    """Reorder a context-bounded, arw-free run so every buffer update sits at
    the end of its context, preserving the final control states, registers
    and memory.  Within a context only the active thread runs, and delaying
    its updates to the context boundary changes no read: a buffered entry
    shadows exactly the value it would have written to memory."""
    blocks = _blocks(run.labels)
    if len(blocks) > k:
        raise ValueError(f"run does not fit into {k} contexts")
    for label in run.labels:
        if label.delta is not None and operands(label.delta.op)[0] == OP_ARW:
            raise ValueError("runs with arw steps cannot be normalized")
    # the sort is stable: a block's operations, then its updates, each in order
    return replay(program, [l for block in blocks
                            for l in sorted(block, key=attrgetter("is_update"))])


def replay(program: Program, labels: list[Label]) -> Run:
    """Run a label sequence from the initial configuration."""
    c = init = initial_config(program)
    steps = []
    for label in labels:
        c = tso_step(program, c, label)
        steps.append((label, c))
    return Run(init, tuple(steps))
