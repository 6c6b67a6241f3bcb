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
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .model import (
    Arw, Assign, Guard, ModelTooLargeError, NewValue, Program, ProgramIndex,
    Read, Target, Thread, Transition, Write, eval_rel, program_index,
)
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE_WITHIN_BOUNDS, Stats, Verdict,
)


@dataclass(frozen=True)
class Bounds:
    buffer_bound: int
    domain_bound: int
    depth: int

    def __post_init__(self) -> None:
        if self.buffer_bound < 0 or self.domain_bound < 0 or self.depth < 0:
            raise ValueError("bounds must be naturals")
        if self.domain_bound > 250:
            raise ValueError("domain_bound above the desk-scale limit of 250")


@dataclass(frozen=True)
class TsoConfig:
    """st/rval/mem are indexed by the program's interning order."""
    st: tuple[int, ...]
    rval: tuple[int, ...]
    buf: tuple[tuple[tuple[int, int], ...], ...]
    mem: tuple[int, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def tso_enabled(program: Program, c: TsoConfig, b: Bounds) -> list[Label]:
    """Enabled labels, in a fixed order: threads in declaration order; per
    thread its transitions in declaration order (values ascending for
    `r := *`), then the update step."""
    idx = program_index(program)
    out: list[Label] = []
    for ti, tname in enumerate(idx.thread_ids):
        for _, tr in idx.out[ti][c.st[ti]]:
            op = tr.op
            if isinstance(op, (Assign, Read)):
                out.append(Label(tname, tr))
            elif isinstance(op, NewValue):
                for v in range(b.domain_bound + 1):
                    out.append(Label(tname, tr, v))
            elif isinstance(op, Guard):
                if eval_rel(op.rel, c.rval[idx.rid[op.left]], c.rval[idx.rid[op.right]]):
                    out.append(Label(tname, tr))
            elif isinstance(op, Write):
                if len(c.buf[ti]) < b.buffer_bound:
                    out.append(Label(tname, tr))
            else:  # Arw
                if not c.buf[ti] and c.mem[idx.vid[op.var]] == c.rval[idx.rid[op.expect]]:
                    out.append(Label(tname, tr))
        if c.buf[ti]:
            out.append(Label(tname, None))
    return out


def tso_step(program: Program, c: TsoConfig, label: Label) -> TsoConfig:
    """Apply one label.  Checks semantic enabledness (guards, arw conditions,
    non-empty buffer for updates) but not the exploration bounds."""
    idx = program_index(program)
    ti = idx.tid[label.thread]
    if label.is_update:
        if not c.buf[ti]:
            raise NotEnabledError(f"{label.render()}: store buffer is empty")
        (x, v), rest = c.buf[ti][0], c.buf[ti][1:]
        mem = list(c.mem)
        mem[x] = v
        buf = list(c.buf)
        buf[ti] = rest
        return TsoConfig(c.st, c.rval, tuple(buf), tuple(mem))

    tr = label.delta
    if c.st[ti] != idx.state_id[ti][tr.src]:
        raise NotEnabledError(f"{label.render()}: thread is not at state {tr.src}")
    st = list(c.st)
    st[ti] = idx.state_id[ti][tr.dst]
    op = tr.op
    if isinstance(op, Assign):
        rval = list(c.rval)
        rval[idx.rid[op.dst]] = c.rval[idx.rid[op.src]]
        return TsoConfig(tuple(st), tuple(rval), c.buf, c.mem)
    if isinstance(op, NewValue):
        if label.value is None or label.value < 0:
            raise NotEnabledError(f"{label.render()}: needs a natural value")
        rval = list(c.rval)
        rval[idx.rid[op.dst]] = label.value
        return TsoConfig(tuple(st), tuple(rval), c.buf, c.mem)
    if isinstance(op, Guard):
        if not eval_rel(op.rel, c.rval[idx.rid[op.left]], c.rval[idx.rid[op.right]]):
            raise NotEnabledError(f"{label.render()}: guard is false")
        return TsoConfig(tuple(st), c.rval, c.buf, c.mem)
    if isinstance(op, Read):
        x = idx.vid[op.var]
        v = _latest_buffered(c.buf[ti], x)
        if v is None:
            v = c.mem[x]
        rval = list(c.rval)
        rval[idx.rid[op.dst]] = v
        return TsoConfig(tuple(st), tuple(rval), c.buf, c.mem)
    if isinstance(op, Write):
        x = idx.vid[op.var]
        buf = list(c.buf)
        buf[ti] = c.buf[ti] + ((x, c.rval[idx.rid[op.src]]),)
        return TsoConfig(tuple(st), c.rval, tuple(buf), c.mem)
    # Arw
    x = idx.vid[op.var]
    if c.buf[ti]:
        raise NotEnabledError(f"{label.render()}: store buffer must be empty")
    if c.mem[x] != c.rval[idx.rid[op.expect]]:
        raise NotEnabledError(f"{label.render()}: memory value differs from expected")
    mem = list(c.mem)
    mem[x] = c.rval[idx.rid[op.update]]
    return TsoConfig(tuple(st), c.rval, c.buf, tuple(mem))


# --- compact encoding for the explicit search ------------------------------

class _Codec:
    """Configs as byte strings; every component must fit in one byte."""

    def __init__(self, program: Program):
        self.idx = program_index(program)
        self.nt = len(self.idx.thread_ids)
        self.nr = len(self.idx.regs)
        self.nx = len(self.idx.vars)
        for tname, names in zip(self.idx.thread_ids, self.idx.state_names):
            if len(names) > 255:
                raise ModelTooLargeError(f"thread '{tname}' has {len(names)} states, "
                                         "above the limit of 255")

    def encode(self, c: TsoConfig, extra: tuple[int, ...] = ()) -> bytes:
        flat = list(c.st)
        flat.extend(c.rval)
        flat.extend(c.mem)
        for buf in c.buf:
            flat.append(len(buf))
            for x, v in buf:
                flat.append(x)
                flat.append(v)
        flat.extend(extra)
        return bytes(flat)

    def decode(self, b: bytes, n_extra: int = 0) -> tuple[TsoConfig, tuple[int, ...]]:
        vals = tuple(b)
        st = vals[:self.nt]
        rval = vals[self.nt:self.nt + self.nr]
        mem = vals[self.nt + self.nr:self.nt + self.nr + self.nx]
        i = self.nt + self.nr + self.nx
        bufs = []
        for _ in range(self.nt):
            ln = vals[i]
            i += 1
            entries = tuple((vals[i + 2 * j], vals[i + 2 * j + 1]) for j in range(ln))
            i += 2 * ln
            bufs.append(entries)
        extra = vals[i:i + n_extra]
        return TsoConfig(st, rval, tuple(bufs), mem), extra


def _label_core(idx: ProgramIndex, label: Label) -> tuple[int, int, int]:
    """(thread, transition position or -1 for update, value or -1)."""
    ti = idx.tid[label.thread]
    if label.is_update:
        return (ti, -1, -1)
    pos = idx.thread_transitions[ti].index(label.delta)
    return (ti, pos, -1 if label.value is None else label.value)


def _label_from_core(idx: ProgramIndex, core: tuple[int, int, int]) -> Label:
    ti, pos, value = core
    if pos < 0:
        return Label(idx.thread_ids[ti], None)
    tr = idx.thread_transitions[ti][pos]
    return Label(idx.thread_ids[ti], tr, None if value < 0 else value)


def _rebuild_run(program: Program, cores: list[tuple[int, int, int]]) -> Run:
    idx = program_index(program)
    return replay(program, [_label_from_core(idx, core) for core in cores])


def _bfs(program: Program, target: Target, b: Bounds, max_states: int,
         contexts: Optional[int]) -> Verdict:
    """Level-order search.  With `contexts` set, nodes carry the active thread
    and the count of maximal single-thread blocks used so far; steps by a
    different thread open a new block and are only allowed below the cap."""
    idx = program_index(program)
    codec = _Codec(program)
    tti, tsi = idx.target_idx(target)
    start = time.perf_counter()
    stats = Stats()

    init = initial_config(program)
    n_extra = 2 if contexts is not None else 0

    def make_key(c: TsoConfig, active: int, blocks: int) -> bytes:
        if contexts is None:
            return codec.encode(c)
        return codec.encode(c, (active + 1, blocks))

    parents: dict[bytes, tuple[Optional[bytes], tuple[int, int, int]]] = {}
    init_key = make_key(init, -1, 0)
    parents[init_key] = (None, (0, 0, 0))

    def finish(status: str, witness_key: Optional[bytes]) -> Verdict:
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        witness = None
        if witness_key is not None:
            cores = []
            k = witness_key
            while True:
                parent, core = parents[k]
                if parent is None:
                    break
                cores.append(core)
                k = parent
            witness = _rebuild_run(program, list(reversed(cores)))
        return Verdict(witness_key is not None, status, witness, stats)

    if init.st[tti] == tsi:
        return finish(REACHABLE, init_key)

    frontier: deque[bytes] = deque([init_key])
    depth = 0
    while frontier and depth < b.depth:
        depth += 1
        next_frontier: deque[bytes] = deque()
        while frontier:
            key = frontier.popleft()
            conf, extra = codec.decode(key, n_extra)
            stats.states_explored += 1
            active, blocks = (extra[0] - 1, extra[1]) if contexts is not None else (-1, 0)
            for label in tso_enabled(program, conf, b):
                ti = idx.tid[label.thread]
                if contexts is not None:
                    if ti == active:
                        nactive, nblocks = active, blocks
                    elif blocks < contexts:
                        nactive, nblocks = ti, blocks + 1
                    else:
                        continue
                else:
                    nactive, nblocks = -1, 0
                succ = tso_step(program, conf, label)
                skey = make_key(succ, nactive, nblocks)
                if skey in parents:
                    continue
                parents[skey] = (key, _label_core(idx, label))
                if succ.st[tti] == tsi:
                    return finish(REACHABLE, skey)
                if len(parents) > max_states:
                    return finish(BOUND_EXHAUSTED, None)
                next_frontier.append(skey)
        frontier = next_frontier
        stats.peak_frontier = max(stats.peak_frontier, len(frontier))
    return finish(UNREACHABLE_WITHIN_BOUNDS, None)


def tso_reach_bounded(program: Program, target: Target, b: Bounds,
                      max_states: int = 1_000_000) -> Verdict:
    """Shortest-witness BFS of the bounded TSO system."""
    return _bfs(program, target, b, max_states, None)


def cb_reach_bounded(program: Program, target: Target, k: int, b: Bounds,
                     max_states: int = 1_000_000) -> Verdict:
    """Like tso_reach_bounded but restricted to runs of at most k contexts."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _bfs(program, target, b, max_states, k)


def cb_partition_check(run: Run, k: int) -> bool:
    """True iff the run's labels form at most k maximal single-thread blocks."""
    blocks = 0
    current: Optional[str] = None
    for label in run.labels:
        if label.thread != current:
            blocks += 1
            current = label.thread
    return blocks <= k


def normalize_updates(program: Program, run: Run, k: int) -> Run:
    """Reorder a context-bounded, arw-free run so every buffer update sits at
    the end of its context, preserving the final control states, registers
    and memory.  Within a context only the active thread runs, and delaying
    its updates to the context boundary changes no read: a buffered entry
    shadows exactly the value it would have written to memory."""
    if not cb_partition_check(run, k):
        raise ValueError(f"run does not fit into {k} contexts")
    for label in run.labels:
        if label.delta is not None and isinstance(label.delta.op, Arw):
            raise ValueError("runs with arw steps cannot be normalized")
    blocks: list[list[Label]] = []
    current: Optional[str] = None
    for label in run.labels:
        if label.thread != current:
            blocks.append([])
            current = label.thread
        blocks[-1].append(label)
    new_labels: list[Label] = []
    for block in blocks:
        new_labels.extend(l for l in block if not l.is_update)
        new_labels.extend(l for l in block if l.is_update)
    return replay(program, new_labels)


def replay(program: Program, labels: list[Label]) -> Run:
    """Run a label sequence from the initial configuration."""
    c = initial_config(program)
    steps = []
    for label in labels:
        c = tso_step(program, c, label)
        steps.append((label, c))
    return Run(initial_config(program), tuple(steps))
