"""Corpus constructions and brute-force oracles to check them against.

Three families:

  * a ticket mutual-exclusion protocol compiled to threads plus a monitor
    that enters `viol` when it observes two threads inside the critical
    section at once,
  * a single-thread program that reaches `acc` exactly when a set of DFAs
    over a common alphabet accepts a common word, and
  * a two-thread program simulating a lossy data channel with the writers'
    store buffers.

Each generator returns the program, its target, and a context-count hint.
The oracles (product-automaton emptiness, bounded channel search) are
independent implementations used to cross-check engine verdicts.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations, product
from typing import Optional

import time

from ._record import record
from .dsl import (
    Dfa, DlcsFresh, DlcsModel, DlcsRecv, DlcsSend, render_program,
    validate_dfa, validate_dlcs,
)
from .model import (
    EQ, LT, NEQ, OP_ASSIGN, Arw, Assign, Guard, NewValue, Program, Read,
    Target, Thread, Transition, Write, eval_rel, operands, states_in_order,
)
from .tso import _put
from .verdict import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE_WITHIN_BOUNDS, Stats, Verdict,
)


@record
class GenResult:
    program: Program
    target: Target
    k_hint: int

    def to_text(self) -> str:
        return render_program(self.program, self.target)


# --- ticket protocol ---------------------------------------------------------


def gen_bakery(n: int) -> GenResult:
    """n ticket-protocol threads plus a monitor.

    Thread i loops: announce choosing (chosen_i := FALSE), draw a ticket
    candidate, restart if any other ticket is bigger, publish the ticket,
    announce done (chosen_i := TRUE), then wait per other thread until it is
    done choosing and holds no smaller ticket, and enter the critical
    section.  FALSE is the initial 0; TRUE is a drawn nonzero value.  Entry
    and exit toggle in_crit_i, and the monitor reaches `viol` on seeing two
    of these flags set at once.

    The candidate draw is unconstrained, so a thread can draw 0 and compete
    while looking idle to everyone else; with store buffering two threads
    can also pass each other's checks before any write lands.  Hence viol
    is reachable for n >= 2 (four contexts suffice: two overlapping entries,
    one flush, one monitor look), and unreachable for n = 1.
    """
    if n < 1:
        raise ValueError("need at least one thread")
    shared = tuple(f"ticket_{i}" for i in range(1, n + 1)) \
        + tuple(f"chosen_{i}" for i in range(1, n + 1)) \
        + tuple(f"in_crit_{i}" for i in range(1, n + 1))

    threads = []
    for i in range(1, n + 1):
        rT, rF, rc = f"t{i}_rT", f"t{i}_rF", f"t{i}_r{i}"
        regs = (rT, rF) + tuple(f"t{i}_r{j}" for j in range(1, n + 1))
        others = [j for j in range(1, n + 1) if j != i]
        trs: list[Transition] = []
        trs.append(Transition("boot0", NewValue(rT), "boot1"))
        trs.append(Transition("boot1", Guard(NEQ, rT, rF), "begin"))
        trs.append(Transition("begin", Write(f"chosen_{i}", rF), "pick"))
        first_scan = f"scan{others[0]}" if others else "accept"
        trs.append(Transition("pick", NewValue(rc), first_scan))
        for pos, j in enumerate(others):
            rj = f"t{i}_r{j}"
            nxt = f"scan{others[pos + 1]}" if pos + 1 < len(others) else "accept"
            trs.append(Transition(f"scan{j}", Read(f"ticket_{j}", rj), f"chk{j}"))
            trs.append(Transition(f"chk{j}", Guard(LT, rc, rj), "begin"))
            trs.append(Transition(f"chk{j}", Guard(LT, rj, rc), nxt))
            trs.append(Transition(f"chk{j}", Guard(EQ, rj, rc), nxt))
        trs.append(Transition("accept", Write(f"ticket_{i}", rc), "announce"))
        first_wait = f"wch{others[0]}" if others else "enter"
        trs.append(Transition("announce", Write(f"chosen_{i}", rT), first_wait))
        for pos, j in enumerate(others):
            rj = f"t{i}_r{j}"
            nxt = f"wch{others[pos + 1]}" if pos + 1 < len(others) else "enter"
            trs.append(Transition(f"wch{j}", Read(f"chosen_{j}", rj), f"wchk{j}"))
            trs.append(Transition(f"wchk{j}", Guard(NEQ, rj, rT), f"wch{j}"))
            trs.append(Transition(f"wchk{j}", Guard(EQ, rj, rT), f"wtk{j}"))
            trs.append(Transition(f"wtk{j}", Read(f"ticket_{j}", rj), f"tchk{j}"))
            trs.append(Transition(f"tchk{j}", Guard(EQ, rj, rF), nxt))
            trs.append(Transition(f"tchk{j}", Guard(LT, rc, rj), nxt))
            trs.append(Transition(f"tchk{j}", Guard(EQ, rc, rj), nxt))
            trs.append(Transition(f"tchk{j}", Guard(NEQ, rj, rF), f"tchk2{j}"))
            trs.append(Transition(f"tchk2{j}", Guard(LT, rj, rc), f"wtk{j}"))
        trs.append(Transition("enter", Write(f"in_crit_{i}", rT), "crit"))
        trs.append(Transition("crit", Write(f"in_crit_{i}", rF), "reset"))
        trs.append(Transition("reset", Assign(rc, rF), "begin"))

        threads.append(Thread(f"t{i}", states_in_order("boot0", trs), regs,
                              "boot0", tuple(trs)))

    mon_trs: list[Transition] = []
    mon_states = ["m0"]
    for a, b in combinations(range(1, n + 1), 2):
        pa, pb, pc = f"p{a}_{b}a", f"p{a}_{b}b", f"p{a}_{b}c"
        mon_trs.append(Transition("m0", Read(f"in_crit_{a}", "mon_ra"), pa))
        mon_trs.append(Transition(pa, Guard(NEQ, "mon_ra", "mon_rF"), pb))
        mon_trs.append(Transition(pb, Read(f"in_crit_{b}", "mon_rb"), pc))
        mon_trs.append(Transition(pc, Guard(NEQ, "mon_rb", "mon_rF"), "viol"))
        mon_states.extend([pa, pb, pc])
    mon_states.append("viol")
    threads.append(Thread("mon", tuple(mon_states),
                          ("mon_ra", "mon_rb", "mon_rF"), "m0", tuple(mon_trs)))

    program = Program.make(threads, shared)
    return GenResult(program, Target("mon", "viol"), 4 if n >= 2 else 1)


# --- DFA intersection --------------------------------------------------------


def _check_dfas(dfas: list[Dfa]) -> None:
    if not dfas:
        raise ValueError("need at least one automaton")
    for d in dfas:
        diags = validate_dfa(d)
        if diags:
            raise ValueError(diags[0])
    base = set(dfas[0].alphabet)
    for d in dfas[1:]:
        if set(d.alphabet) != base:
            raise ValueError("alphabet mismatch")


def dfa_intersection_oracle(dfas: list[Dfa]) -> bool:
    """True iff some word is accepted by every automaton (product BFS)."""
    _check_dfas(dfas)
    step = []
    for d in dfas:
        by = {}
        for (src, letter, dst) in d.transitions:
            by.setdefault((src, letter), []).append(dst)
        step.append(by)
    alphabet = dfas[0].alphabet
    finals = [set(d.finals) for d in dfas]
    start = tuple(d.init for d in dfas)
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        if all(q in finals[i] for i, q in enumerate(cur)):
            return True
        for a in alphabet:
            # every combination of the automata's moves on a; none if one
            # automaton has no move
            for nxt in product(*(step[i].get((q, a), ()) for i, q in enumerate(cur))):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return False


def gen_intersection(dfas: list[Dfa]) -> GenResult:
    """One thread that simulates all automata in lockstep on a guessed word.

    Registers: one per automaton state, made pairwise distinct within each
    automaton during an init chain, plus a current-state register per
    automaton.  From the hub, a letter is consumed by passing through one
    transition gadget per automaton; from the hub one can also run the
    final-state checks down to `acc`.
    """
    _check_dfas(dfas)
    n = len(dfas)
    alphabet = dfas[0].alphabet

    def sreg(i: int, q: str) -> str:
        return f"s{i}_{q}"

    def creg(i: int) -> str:
        return f"c{i}"

    regs = tuple(sreg(i + 1, q) for i, d in enumerate(dfas) for q in d.states) \
        + tuple(creg(i + 1) for i in range(n))

    init_ops = []
    for i, d in enumerate(dfas, start=1):
        for q in d.states:
            init_ops.append(NewValue(sreg(i, q)))
        for qa, qb in combinations(d.states, 2):
            init_ops.append(Guard(NEQ, sreg(i, qa), sreg(i, qb)))
        init_ops.append(Assign(creg(i), sreg(i, d.init)))

    trs: list[Transition] = []
    for pos, op in enumerate(init_ops):
        dst = "hub" if pos == len(init_ops) - 1 else f"i{pos + 1}"
        trs.append(Transition(f"i{pos}", op, dst))

    for a in alphabet:
        prev = "hub"
        for i, d in enumerate(dfas, start=1):
            stage = "hub" if i == n else f"h_{a}_{i}"
            for di, (src, letter, dst) in enumerate(d.transitions):
                if letter != a:
                    continue
                mid = f"m_{a}_{i}_{di}"
                trs.append(Transition(prev, Guard(EQ, creg(i), sreg(i, src)), mid))
                trs.append(Transition(mid, Assign(creg(i), sreg(i, dst)), stage))
            prev = stage

    prev = "hub"
    for i, d in enumerate(dfas, start=1):
        stage = "acc" if i == n else f"f_{i}"
        for f in d.finals:
            trs.append(Transition(prev, Guard(EQ, creg(i), sreg(i, f)), stage))
        prev = stage

    states = states_in_order("i0", trs, extra=("acc",))
    thread = Thread("sim", states, regs, "i0", tuple(trs))
    program = Program.make([thread], ())
    return GenResult(program, Target("sim", "acc"), 1)


# --- lossy data channel ------------------------------------------------------


def dlcs_reach_bounded(m: DlcsModel, target_state: str, channel_len: int,
                       fresh_values: int, depth: int = 10_000,
                       max_states: int = 500_000) -> Verdict:
    """Explicit search of the channel system with a finite fresh-value pool
    and a channel length cap.  A state's successors come from one
    enumeration: its operations in declaration order, then its losses, each
    dropping a subset of the channel.  Negative answers are relative to the
    bounds."""
    diags = validate_dlcs(m)
    if diags:
        raise ValueError(diags[0])
    if target_state not in m.states:
        raise ValueError(f"unknown target state '{target_state}'")
    vid = {x: i for i, x in enumerate(m.vars)}
    out: dict[str, list] = {q: [] for q in m.states}
    for (src, op, dst) in m.transitions:
        out[src].append((op, dst))
    pool = list(range(1, fresh_values + 1))

    # a configuration is (state, xval, channel): xval by model var order, the
    # channel newest first (a receive pops the tail)
    def moves(cfg: tuple):
        """Each step from cfg as (successor, label), in the order above."""
        state, xval, w = cfg
        for op, dst in out[state]:
            if isinstance(op, DlcsFresh):
                for d in pool:
                    if d not in xval:
                        yield (dst, _put(xval, vid[op.dst], d), w), f"{op.dst} := {d}"
            elif isinstance(op, DlcsSend):
                if len(w) < channel_len:
                    entry = (op.letter, xval[vid[op.var]])
                    yield (dst, xval, (entry,) + w), op.render()
            elif isinstance(op, DlcsRecv):  # the oldest entry sits at the tail
                if w and w[-1][0] == op.letter:
                    yield (dst, _put(xval, vid[op.var], w[-1][1]), w[:-1]), op.render()
            else:
                kind, x, y, rel = operands(op, vid.__getitem__)
                if kind == OP_ASSIGN:
                    yield (dst, _put(xval, x, xval[y]), w), op.render()
                elif eval_rel(rel, xval[x], xval[y]):
                    yield (dst, xval, w), op.render()
        # lossiness: any proper subsequence of the channel
        for mask in range((1 << len(w)) - 1):
            sub = tuple(w[i] for i in range(len(w)) if mask & (1 << i))
            yield (state, xval, sub), "loss"

    stats = Stats()
    start = time.perf_counter()
    init = (m.init, (0,) * len(m.vars), ())
    parents: dict[tuple, Optional[tuple[tuple, str]]] = {init: None}

    def finish(status: str, node: Optional[tuple] = None) -> Verdict:
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        witness = None
        if node is not None:
            steps = []
            while parents[node] is not None:
                node, label = parents[node]
                steps.append(label)
            witness = tuple(reversed(steps))
        return Verdict(witness is not None, status, witness, stats)

    if m.init == target_state:
        return finish(REACHABLE, init)
    frontier = [init]
    level = 0
    while frontier and level < depth:
        level += 1
        nxt = []
        for cfg in frontier:
            stats.states_explored += 1
            for cfg2, label in moves(cfg):
                if cfg2 in parents:
                    continue
                parents[cfg2] = (cfg, label)
                if cfg2[0] == target_state:
                    return finish(REACHABLE, cfg2)
                if len(parents) > max_states:
                    stats.stop_reason = "max_states"
                    return finish(BOUND_EXHAUSTED)
                nxt.append(cfg2)
        frontier = nxt
        stats.peak_frontier = max(stats.peak_frontier, len(frontier))
    if frontier:
        stats.stop_reason = "depth"
        return finish(BOUND_EXHAUSTED)
    return finish(UNREACHABLE_WITHIN_BOUNDS)


def gen_dlcs_reduction(m: DlcsModel) -> GenResult:
    """Compile a channel model into two threads.

    Thread t runs the model's control; the channel lives in the threads'
    store buffers.  A send on letter a writes the payload and then a
    separator to x_a (so each payload can be consumed at most once); the
    relay thread copies payload+separator pairs from x_a to y_a through its
    own buffer; a receive reads a non-separator payload and then the
    separator from y_a.  Values never relayed, or overwritten before being
    read, model channel loss.  The separator is drawn by the relay at boot
    and planted in every shared variable with atomic read-writes; t learns
    it by reading any variable and checking it is no longer 0.
    """
    diags = validate_dlcs(m)
    if diags:
        raise ValueError(diags[0])
    if m.target is None:
        raise ValueError("the channel model needs a target state")
    for q in m.states:
        if q.startswith("_"):
            raise ValueError("state names starting with '_' are reserved")
    if {"dollar", "tmp"} & set(m.vars):
        raise ValueError("variable names 'dollar' and 'tmp' are reserved")

    xvars = tuple(f"x_{a}" for a in m.alphabet)
    yvars = tuple(f"y_{a}" for a in m.alphabet)
    shared = xvars + yvars

    def rx(x: str) -> str:
        return f"r_{x}"

    t_regs = ("r_dollar", "r_tmp") + tuple(rx(x) for x in m.vars)
    t_trs: list[Transition] = []
    cur = "_t0"
    serial = 0

    def tchain(op, final: Optional[str] = None) -> None:
        nonlocal cur, serial
        if final is None:
            serial += 1
            nxt = f"_t{serial}"
        else:
            nxt = final
        t_trs.append(Transition(cur, op, nxt))
        cur = nxt

    for pos, v in enumerate(shared):
        tchain(Read(v, "r_dollar"))
        tchain(Guard(NEQ, "r_dollar", "r_tmp"),
               final=m.init if pos == len(shared) - 1 else None)

    for src, op, dst in m.transitions:
        if isinstance(op, DlcsFresh):
            cur = src
            tchain(NewValue("r_tmp"))
            tchain(Guard(NEQ, "r_tmp", "r_dollar"))
            for xv in m.vars:
                tchain(Guard(NEQ, "r_tmp", rx(xv)))
            t_trs.append(Transition(cur, Assign(rx(op.dst), "r_tmp"), dst))
        elif isinstance(op, DlcsSend):
            cur = src
            tchain(Write(f"x_{op.letter}", rx(op.var)))
            t_trs.append(Transition(cur, Write(f"x_{op.letter}", "r_dollar"), dst))
        elif isinstance(op, DlcsRecv):
            cur = src
            tchain(Read(f"y_{op.letter}", rx(op.var)))
            tchain(Guard(NEQ, rx(op.var), "r_dollar"))
            tchain(Read(f"y_{op.letter}", "r_tmp"))
            t_trs.append(Transition(cur, Guard(EQ, "r_tmp", "r_dollar"), dst))
        else:
            kind, x, y, rel = operands(op, rx)
            t_trs.append(Transition(src, Assign(x, y) if kind == OP_ASSIGN
                                    else Guard(rel, x, y), dst))

    ch_trs: list[Transition] = []
    ch_trs.append(Transition("_c0", NewValue("ch_dollar"), "_c1"))
    ch_trs.append(Transition("_c1", Guard(NEQ, "ch_dollar", "ch_tmp"), "_c2"))
    prev = "_c2"
    for pos, v in enumerate(shared):
        nxt = "_qch" if pos == len(shared) - 1 else f"_c{pos + 3}"
        ch_trs.append(Transition(prev, Arw(v, "ch_tmp", "ch_dollar"), nxt))
        prev = nxt
    for a in m.alphabet:
        s1, s2, s3, s4, s5 = (f"_ch_{a}_{i}" for i in range(1, 6))
        ch_trs.append(Transition("_qch", Read(f"x_{a}", "ch_tmp"), s1))
        ch_trs.append(Transition(s1, Guard(NEQ, "ch_tmp", "ch_dollar"), s2))
        ch_trs.append(Transition(s2, Write(f"y_{a}", "ch_tmp"), s3))
        ch_trs.append(Transition(s3, Read(f"x_{a}", "ch_tmp"), s4))
        ch_trs.append(Transition(s4, Guard(EQ, "ch_tmp", "ch_dollar"), s5))
        ch_trs.append(Transition(s5, Write(f"y_{a}", "ch_tmp"), "_qch"))

    t = Thread("t", states_in_order("_t0", t_trs, extra=m.states), t_regs,
               "_t0", tuple(t_trs))
    t_ch = Thread("t_ch", states_in_order("_c0", ch_trs), ("ch_dollar", "ch_tmp"),
                  "_c0", tuple(ch_trs))
    program = Program.make([t, t_ch], shared)
    # one block seeds the markers, then every transfer costs two: a send
    # needs the mover's block for the value and another pass to restore the
    # slot marker; a receive reads the value in one block and the restored
    # marker in a later one
    moves = sum(1 for (_, op, _) in m.transitions
                if isinstance(op, (DlcsSend, DlcsRecv)))
    return GenResult(program, Target("t", m.target), 2 + 2 * moves)
