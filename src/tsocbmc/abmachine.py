"""Store-buffer summarization for context-bounded runs.

The machine replaces per-thread FIFO buffers with finitely many summary
variables, exploiting that in a k-context run every buffered write either
commits to memory at the end of some context where its thread is active, or
never commits at all:

  shared(x)        current memory value of x
  reg(r)           register r
  ctxvar(x, j)     value of the last write on x committing at the end of
                   context j ("flush context j")
  thrvar(x, t)     value of t's newest buffered write on x
  sentinel         pinned 0; every other value is >= it

Only summaries that some step can read get a column of the summary table;
the rest get none, and no effect writes them.  A dropped summary's value
never reaches a guard or a kept summary, so the search sees the same runs.

  shared(x), ctxvar(x, j)  kept when some thread reads x (read or arw):
                   memory reads and arws are the only steps that read
                   shared(x), and a context summary is read only when its
                   flush copies it into shared(x)
  ctxvar(x, k)     never kept: the last context is never flushed
  thrvar(x, t)     kept when t both writes x and reads it: only t's own
                   reads and arws look at it, and only while c(x, t) marks
                   a write of t on x as pending
  reg(r)           kept when r is both assigned (by :=, * or read) and used
                   (by a guard, write, arw or as a := source); a register
                   never assigned is always 0 and reads the sentinel, and
                   one never used takes no copy, fresh value or reset

Control state: per-thread program states, the context-to-thread assignment
`act` (guessed up front), the current context j, the map c(x, t) giving the
flush context of t's newest write on x (0 = none pending, k+1 = the write
never commits), and per-context sets u(j) of variables with a write
committing at the end of j.  Only the switch out of j < k reads u(j), so
u(k) is never written: states differing only there would be duplicates.
The row stays in the layout, so every key keeps its length.

check_reach packs a control state in the machine's control_form: bytes
when every entry fits a byte, a tuple otherwise.  The entries are state
ids, thread ids up to the finished-context marker nt, j and c entries up
to k + 1 <= 255 (k is limited to 254) and u flags, so the form is bytes
exactly when nt <= 255 and every thread has at most 256 states.  The
table methods build their pieces in that form.

Transitions emit effect descriptors over summary columns instead of touching
values directly, of three kinds:

  ("copy", dst, src)               dst := src
  ("fresh", dst)                   dst := caller-chosen natural
  ("guard", rel, left, right)      relation test between two columns

so the same rules drive both concrete replay (values supplied) and the order
abstraction (effects interpreted over rank states).  A move's effects apply
in list order.  A context switch flushes as plain copies, shared(x) :=
ctxvar(x, j) for each committed x in variable order, then resets: every copy
reads a context column and writes a shared one, so none reads a column an
earlier one wrote, and in order they give the simultaneous flush.  The rules
read each operation through the operand record of the program index (see
model.operands), the same record the concrete oracle (tso) reads.  Each move
carries the label (rule, thread, transition position, context): the context
is the flush context of a write and the target of a switch, -1 for the rest.
These tuples are the only form of labels and effects, from the search to the
witness; `names` holds one unique string per column, and render_label and
render_effect turn labels and effects into text for reports.

A write must pick its flush context j' at issue time: j <= j' <= k with the
writer active in j', and j' at least every flush context already pending for
the thread, so commits respect FIFO order.  Choosing j' = k+1 leaves the
write in the buffer forever; FIFO then forces every later write of the
thread to do the same.  Without the k+1 option the machine would miss runs
that commit only a prefix of a buffer, e.g. a thread publishing one variable
while a second, later write stays buffered past the end of its last context.

Bookkeeping that can no longer influence the future is canonicalized away
when a context ends: c entries <= the finished context drop to 0 and its u
set is cleared.  States merged this way have identical outgoing behavior.

Only the active thread t = act[j] moves within context j.  Its moves read
t's program state, act, j and t's own c column (c(x, t) for every x), and
write t's program state and, for a write on x, c(x, t) and (when j' < k)
u(j')[x]; their labels and effects depend on nothing else.  The
switch out of j reads j, act[j], the u(j) row and t's c column, and writes
j + 1, the finished marker at act[j], the u(j) row (cleared) and every c
entry in 1..j (zeroed).  table_keys, table_entries and spliced turn this
into the search's keyed tables (see engine); transitions_flat stays the one
enumerator of moves.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Optional

from .model import (
    EQ, ON_SHARED, OP_ASSIGN, OP_FRESH, OP_GUARD, OP_READ, OP_WRITE,
    ModelTooLargeError, Program, eval_rel, program_index,
)

_RULES = ("local", "buffer_read", "memory_read", "write", "switch",
          "buffer_arw", "memory_arw")
R_LOCAL, R_BUF_READ, R_MEM_READ, R_WRITE, R_SWITCH, R_BUF_ARW, R_MEM_ARW = range(7)


def _copy(dst: Optional[int], src: int) -> tuple:
    """The effect dst := src, or none when dst is a dropped column."""
    return (("copy", dst, src),) if dst is not None else ()


class GuardFailedError(ValueError):
    pass


class AbNotEnabledError(ValueError):
    pass


class AbMachine:
    """Compiled form of the summarized machine for one (program, k)."""

    def __init__(self, program: Program, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.program = program
        self.k = k
        self.idx = idx = program_index(program)
        self.nt = nt = len(idx.thread_ids)
        self.nx = nx = len(idx.vars)
        self.never = k + 1

        # flat control-state layout
        self.ST = 0
        self.ACT = nt
        self.J = nt + k
        self.C = nt + k + 1
        self.U = self.C + nx * nt
        self.flat_len = self.U + k * nx
        self._layout = (self.ACT, self.J, self.C, self.U, nt, nx)

        # k is the one size a one-line --k raises with no bigger model, and
        # _seed_order recurses once per context (k=1200 overflows the stack)
        if k + 1 > 255:
            raise ModelTooLargeError(f"k={k} is above the limit of 254 contexts")
        # the form check_reach packs control states in (module docstring)
        self.control_form = form = (
            bytes if nt <= 255 and all(len(sid) <= 256 for sid in idx.state_id)
            else tuple)
        # per context j < k, the switch's rewrite out of j (see spliced):
        # the positions of the finished marker and the u(j) row, the marker,
        # j + 1 and the cleared row in control_form, and what zeroes the c
        # entries in 1..j: a translate table for bytes, j for tuples
        self._rewrite = [
            (self.ACT + j - 1, self.U + (j - 1) * nx, form((nt,)),
             form((j + 1,)), form((0,)) * nx,
             bytes(range(j + 1, 256)).rjust(256, b"\0") if form is bytes else j)
            for j in range(1, k)]

        # One pass over the transitions: per thread, the register ids each
        # transition reads (g) and assigns (kl), and the shared variables the
        # thread reads (read or arw) and buffers writes to.
        flows: list[list[tuple[int, int, set[int], set[int]]]] = []
        reads: list[set[int]] = []
        writes: list[set[int]] = []
        for ti, t in enumerate(program.threads):
            sid = idx.state_id[ti]
            edges = []
            rd: set[int] = set()
            wr: set[int] = set()
            for tr, (kind, x, y, z) in zip(t.transitions, idx.ops[ti]):
                var, regs = (x, (y, z)) if kind in ON_SHARED else (None, (x, y))
                regs = [r for r in regs if r is not None]
                # the assigned register comes first
                n = 1 if kind in (OP_ASSIGN, OP_FRESH, OP_READ) else 0
                edges.append((sid[tr.src], sid[tr.dst], set(regs[n:]), set(regs[:n])))
                if kind == OP_WRITE:
                    wr.add(var)
                elif var is not None:
                    rd.add(var)
            flows.append(edges)
            reads.append(rd)
            writes.append(wr)

        # The summary table keeps only columns some step can read (see the
        # module docstring); the others get no column and no effect.
        read_any = set().union(*reads)
        used = {r for edges in flows for _, _, g, _ in edges for r in g}
        assigned = {r for edges in flows for _, _, _, kl in edges for r in kl}
        names = ["$zero"]  # column 0, the sentinel

        def col(name: str) -> int:
            # a name an earlier column holds (register x beside shared x,
            # thread c1's summary beside context 1's) gets "#<column>"
            while name in names:
                name += f"#{len(names)}"
            names.append(name)
            return len(names) - 1

        self._shared = [col(x) if xi in read_any else None
                        for xi, x in enumerate(idx.vars)]
        self._reg: list[Optional[int]] = []
        for ri, r in enumerate(idx.regs):
            if ri not in assigned:
                self._reg.append(0)  # always 0: the sentinel stands in for it
            elif ri in used:
                self._reg.append(col(r))
            else:
                self._reg.append(None)
        self._ctx = [col(f"{x}@c{j}") if xi in read_any and j < k else None
                     for xi, x in enumerate(idx.vars) for j in range(1, k + 1)]
        self._thr = [col(f"{x}@{t}") if xi in reads[ti] and xi in writes[ti] else None
                     for xi, x in enumerate(idx.vars) for ti, t in enumerate(idx.thread_ids)]
        # one unique name per summary column, in column order
        self.names: tuple[str, ...] = tuple(names)
        self.nab = len(names)

        # Backward register liveness per thread.  A register that cannot be
        # read again before being overwritten is reset to the sentinel after
        # each step, so runs differing only in stale register values fall
        # together.  _dead_regs[ti][pos] holds the reset effects to append
        # after taking transition pos of thread ti.  The worklist revisits a
        # state's incoming edges only when its live set grew, so the pass is
        # linear in a chain's length.
        self._dead_regs: list[list[tuple]] = []
        for t, edges in zip(program.threads, flows):
            live: list[set[int]] = [set() for _ in t.states]
            into: list[list] = [[] for _ in t.states]  # edges by destination
            for e in edges:
                into[e[1]].append(e)
            todo = list(range(len(t.states)))
            while todo:
                for si, di, g, kl in into[todo.pop()]:
                    new = g | (live[di] - kl)
                    if not new <= live[si]:
                        live[si] |= new
                        todo.append(si)
            dead = []
            for si, di, g, kl in edges:
                gone = (live[si] | kl) - live[di]
                # the sentinel (0) and dropped registers (None) need no reset
                cols = sorted(c for c in map(self.i_reg, gone) if c)
                dead.append(tuple(("copy", c, 0) for c in cols))
            self._dead_regs.append(dead)

    # summary-variable columns; None marks a dropped column, one no step reads
    def i_shared(self, x: int) -> Optional[int]:
        return self._shared[x]

    def i_reg(self, r: int) -> Optional[int]:
        return self._reg[r]

    def i_ctx(self, x: int, j: int) -> Optional[int]:
        return self._ctx[x * self.k + j - 1]

    def i_thr(self, x: int, t: int) -> Optional[int]:
        return self._thr[x * self.nt + t]

    def initial_flat(self, act: tuple[int, ...]) -> tuple[int, ...]:
        if len(act) != self.k or any(t < 0 or t >= self.nt for t in act):
            raise ValueError("act must map each of the k contexts to a thread")
        return (tuple(self.idx.init_states) + tuple(act) + (1,)
                + (0,) * (self.nx * self.nt) + (0,) * (self.k * self.nx))

    def all_initial_flats(self) -> list[tuple[int, ...]]:
        return [self.initial_flat(act) for act in product(range(self.nt), repeat=self.k)]

    def _c_max(self, s: tuple[int, ...], ti: int) -> int:
        return max(s[self.C + ti:self.U:self.nt], default=0)

    def transitions_flat(self, s: tuple[int, ...]):
        """All successors: [(label_core, effects, s')].

        label_core = (rule_code, thread, transition position, flush/to ctx).
        The enumeration order is fixed: the active thread's transitions in
        declaration order (write alternatives by ascending flush context,
        never-commits last), then the context switch.
        """
        k = self.k
        nt = self.nt
        j = s[self.J]
        ti = s[self.ACT + j - 1]
        out = []
        idx = self.idx
        state = s[self.ST + ti]
        ops = idx.ops[ti]
        reg = self.i_reg
        for pos, tr in idx.out[ti][state]:
            kind, x, y, z = ops[pos]
            dst_state = idx.state_id[ti][tr.dst]
            dz = self._dead_regs[ti][pos]
            rule = R_LOCAL
            if kind == OP_ASSIGN:
                eff = _copy(reg(x), reg(y))
            elif kind == OP_FRESH:
                d = reg(x)
                eff = (("fresh", d),) if d is not None else ()
            elif kind == OP_GUARD:
                eff = (("guard", z, reg(x), reg(y)),)
            elif kind == OP_READ:
                rd = reg(y)
                if s[self.C + x * nt + ti] >= j:
                    # newest write on x still buffered: read the thread summary
                    rule, eff = R_BUF_READ, _copy(rd, self.i_thr(x, ti))
                else:
                    rule, eff = R_MEM_READ, _copy(rd, self.i_shared(x))
            elif kind == OP_WRITE:
                rs = reg(y)
                buffered = _copy(self.i_thr(x, ti), rs)
                lo = max(j, self._c_max(s, ti))
                flushes = [jp for jp in range(lo, k + 1) if s[self.ACT + jp - 1] == ti]
                # the write may also stay buffered past the end of the run
                for jp in flushes + [self.never]:
                    eff = buffered
                    s2 = list(s)
                    s2[self.ST + ti] = dst_state
                    s2[self.C + x * nt + ti] = jp
                    if jp <= k:
                        eff += _copy(self.i_ctx(x, jp), rs)
                    if jp < k:
                        s2[self.U + (jp - 1) * self.nx + x] = 1
                    out.append(((R_WRITE, ti, pos, jp), eff + dz, tuple(s2)))
                continue
            else:  # arw
                if j < self._c_max(s, ti):
                    continue
                re, ru = reg(y), reg(z)
                if s[self.C + x * nt + ti] == j:
                    # newest write on x commits this context: operate on it
                    rule, cell = R_BUF_ARW, self.i_thr(x, ti)
                    commit = _copy(self.i_ctx(x, j), ru)
                else:  # nothing pending on x: operate on memory
                    rule, cell, commit = R_MEM_ARW, self.i_shared(x), ()
                eff = (("guard", EQ, re, cell), ("copy", cell, ru)) + commit
            s2 = list(s)
            s2[self.ST + ti] = dst_state
            out.append(((rule, ti, pos, -1), eff + dz, tuple(s2)))
        if j < k:
            out.append(self._switch(s, ti, j))
        return out

    def _switch(self, s: tuple[int, ...], ti: int, j: int):
        nx = self.nx
        # commit the context's writes on the variables someone reads; the
        # others have no shared or context column
        flushed = [x for x in range(nx)
                   if s[self.U + (j - 1) * nx + x] and self.i_shared(x) is not None]
        # plain copies shared := ctx summary; none reads a shared column, so
        # in order they equal the simultaneous flush (module docstring)
        eff = [("copy", self.i_shared(x), self.i_ctx(x, j)) for x in flushed]
        # the flushed summaries are unreadable from here on (nothing consults
        # a context summary after its flush, or a thread summary once its
        # newest write has committed), so reset them to the sentinel; states
        # that differ only in such leftovers then coincide
        for x in flushed:
            eff.append(("copy", self.i_ctx(x, j), 0))
        for x in range(nx):
            if s[self.C + x * self.nt + ti] == j:
                eff.extend(_copy(self.i_thr(x, ti), 0))
        s2 = list(s)
        s2[self.J] = j + 1
        # nothing reads the schedule entry of a finished context again, so
        # overwrite it with the out-of-range marker; runs from different
        # schedules that converge on the same tail then share states
        s2[self.ACT + j - 1] = self.nt
        for x in range(nx):
            s2[self.U + (j - 1) * nx + x] = 0
        for i in range(self.C, self.C + nx * self.nt):
            if 0 < s2[i] <= j:
                s2[i] = 0
        return ((R_SWITCH, ti, -1, j + 1), tuple(eff), tuple(s2))

    # The search's keyed tables (see engine), over control states in
    # control_form.

    def table_keys(self, s):
        """(move key, switch key) of control state s: the parts of s that the
        active thread's moves and its switch read, the switch key None when
        j = k.  A move key is the thread's program state, act, j and the
        thread's c column; a switch key is act[j], j, the u(j) row and the
        same column."""
        ACT, J, C, U, nt, nx = self._layout
        j = s[J]
        a = ACT + j - 1
        ti = s[a]
        col = s[C + ti:U:nt]
        move = s[ti:ti + 1] + s[ACT:C] + col  # ST is 0
        if j == self.k:
            return move, None
        u = U + (j - 1) * nx
        return move, s[a:a + 1] + s[J:C] + s[u:u + nx] + col

    def table_entries(self, s):
        """transitions_flat(s) as table entries: the thread's moves as
        [(label, effects, cells)], cells the (position, one-entry piece)
        pairs a move writes, ascending, and the switch as (label, effects),
        or None when j = k."""
        form = self.control_form
        moves, switch = [], None
        for core, eff, s2 in self.transitions_flat(tuple(s)):
            if core[0] == R_SWITCH:
                switch = (core, eff)
            else:
                moves.append((core, eff, tuple((p, form((s2[p],)))
                                               for p in self._written(core))))
        return moves, switch

    def _written(self, core) -> tuple[int, ...]:
        """The positions a move writes, ascending: the mover's program
        state, and for a write its c entry and, when it flushes before the
        last context, its u entry."""
        rule, ti, pos, jp = core
        if rule != R_WRITE:
            return (self.ST + ti,)
        x = self.idx.ops[ti][pos][1]
        cells = (self.ST + ti, self.C + x * self.nt + ti)
        if jp < self.k:
            cells += (self.U + (jp - 1) * self.nx + x,)
        return cells

    def spliced(self, s, moves, switch) -> list:
        """[(label, x, s')] for the table entries of s in transitions_flat's
        order, x whatever an entry carries in place of its effects: each
        move's cells spliced into s, then the switch's fixed rewrite (see
        _switch): the finished marker at act[j], j + 1, the c entries in
        1..j zeroed and the u(j) row cleared."""
        out = []
        for core, x, cells in moves:
            s2, i = s[:0], 0
            for p, piece in cells:
                s2 += s[i:p] + piece
                i = p + 1
            out.append((core, x, s2 + s[i:]))
        if switch is not None:
            core, x = switch
            _, J, C, U, _, nx = self._layout
            a, u, done, j1, cleared, reset = self._rewrite[s[J] - 1]
            c = s[C:U]
            c = (c.translate(reset) if self.control_form is bytes
                 else tuple(0 if v <= reset else v for v in c))
            out.append((core, x, s[:a] + done + s[a + 1:J] + j1 + c + s[U:u]
                        + cleared + s[u + nx:]))
        return out

    def apply_flat(self, s: tuple[int, ...], label_core):
        """Re-derive (effects, s') for a label; raises if not enabled."""
        for cand, eff, s2 in self.transitions_flat(s):
            if cand == label_core:
                return eff, s2
        raise AbNotEnabledError(f"label {label_core} is not enabled")

    def apply_effects(self, m: tuple[int, ...], effects,
                      fresh_value: Optional[int] = None) -> tuple[int, ...]:
        vals = list(m)
        for eff in effects:
            tag = eff[0]
            if tag == "copy":
                vals[eff[1]] = vals[eff[2]]
            elif tag == "guard":
                if not eval_rel(eff[1], vals[eff[2]], vals[eff[3]]):
                    raise GuardFailedError(f"guard {eff[1].render()} failed")
            else:  # fresh
                if fresh_value is None or fresh_value < 0:
                    raise ValueError("a natural fresh value is required")
                vals[eff[1]] = fresh_value
        return tuple(vals)

    def render_label(self, core) -> str:
        """`thread: src -> dst : op [rule]`, plus `[flush@j]` for a write;
        a switch renders as `thread: switch to context j`."""
        rule, ti, pos, jx = core
        tname = self.idx.thread_ids[ti]
        if rule == R_SWITCH:
            return f"{tname}: switch to context {jx}"
        tr = self.idx.thread_transitions[ti][pos]
        s = f"{tname}: {tr.src} -> {tr.dst} : {tr.op.render()} [{_RULES[rule]}]"
        if rule == R_WRITE:
            s += f" [flush@{jx}]"
        return s

    def render_effect(self, eff) -> str:
        """An effect over the column names, e.g. `x@c1 := a`, `a := *` or
        `assume a != b`."""
        n = self.names
        tag = eff[0]
        if tag == "copy":
            return f"{n[eff[1]]} := {n[eff[2]]}"
        if tag == "fresh":
            return f"{n[eff[1]]} := *"
        return f"assume {n[eff[2]]} {eff[1].render()} {n[eff[3]]}"


# machines kept across calls, one per (program, k); a bench pass uses at
# most 24, and each holds a few KB
_MACHINES = 128


@lru_cache(maxsize=_MACHINES)
def ab_machine(program: Program, k: int) -> AbMachine:
    return AbMachine(program, k)

