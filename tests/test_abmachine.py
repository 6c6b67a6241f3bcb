import random
from pathlib import Path

import pytest

from tsocbmc import (
    EQ, Guard, NEQ, REACHABLE, UNREACHABLE, NewValue, Program, Read, Target,
    Thread, Transition, Write, cb_partition_check, check_reach,
    concrete_run_to_tso, concretize_witness, gen_bakery,
    parse_program_with_target, validate_witness,
)
from tsocbmc.abmachine import (
    AbMachine, GuardFailedError, R_BUF_READ, R_LOCAL, R_MEM_READ, R_SWITCH,
    R_WRITE, ab_machine,
)
from tsocbmc.model import states_in_order
from tsocbmc.selftest import random_program

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _thread(tid, regs, trs, init="q0"):
    return Thread(tid, states_in_order(init, trs), tuple(regs), init, tuple(trs))


# w writes and reads x, r only reads it: the table keeps x@w but not x@r
WRITER = _thread("w", ["a"], [
    Transition("q0", NewValue("a"), "q1"),
    Transition("q1", Write("x", "a"), "q2"),
    Transition("q2", Write("x", "a"), "q3"),
    Transition("q3", Read("x", "a"), "q4"),
])
READER = _thread("r", ["b"], [
    Transition("q0", Read("x", "b"), "q1"),
    Transition("q1", Guard(EQ, "b", "b"), "q2"),
])
PROG = Program.make([WRITER, READER], ["x"])


def _c(m, s, x, t):
    """c(x, t) in control state s: the flush context of t's newest write."""
    return s[m.C + m.idx.vid[x] * m.nt + m.idx.tid[t]]


def _u(m, s, j):
    """u(j) in control state s: variables with a write committing at j."""
    return {m.idx.vars[x] for x in range(m.nx) if s[m.U + (j - 1) * m.nx + x]}


def test_var_renders():
    # sentinel, shared, register, context and thread summaries
    m = AbMachine(PROG, 3)
    assert m.names == ("$zero", "x", "a", "b", "x@c1", "x@c2", "x@w")


def test_machine_layout_and_initials():
    m = AbMachine(PROG, 2)
    # sentinel, shared, regs, ctx summaries, thread summaries; x@c2 (the
    # last context's) and x@r (r never writes x) are read by no step
    assert m.names == ("$zero", "x", "a", "b", "x@c1", "x@w")
    assert m.nab == 6
    assert (m.i_shared(0), m.i_reg(0), m.i_reg(1)) == (1, 2, 3)
    assert (m.i_ctx(0, 1), m.i_ctx(0, 2)) == (4, None)
    assert (m.i_thr(0, 0), m.i_thr(0, 1)) == (5, None)
    assert len(m.all_initial_flats()) == m.nt ** m.k == 4
    s0 = m.initial_flat((0, 1))
    assert s0[m.J] == 1 and s0[m.ACT:m.ACT + m.k] == (0, 1)
    assert s0[m.ST:m.ST + m.nt] == (m.idx.state_id[0]["q0"], m.idx.state_id[1]["q0"])
    assert _c(m, s0, "x", "w") == 0 and _u(m, s0, 1) == set()
    with pytest.raises(ValueError):
        m.initial_flat((0,))
    with pytest.raises(ValueError):
        m.initial_flat((0, 5))
    with pytest.raises(ValueError):
        AbMachine(PROG, 0)


def _step(m, s, want):
    for core, eff, s2 in m.successors(s):
        if want(core):
            return core, eff, s2
    raise AssertionError("no matching transition")


def test_write_alternatives_ascending_with_never_last():
    m = AbMachine(PROG, 3)
    s = m.initial_flat((0, 1, 0))  # w active in contexts 1 and 3
    _, _, s = _step(m, s, lambda c: c[0] == R_LOCAL)  # a := *
    writes = [c for c, _, _ in m.transitions_flat(s) if c[0] == R_WRITE]
    # flush contexts: ascending active ones, then the never-commits marker
    assert [c[3] for c in writes] == [1, 3, m.never]
    # taking flush@3 pins later writes at 3 or beyond
    _, _, s = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == 3)
    assert _c(m, s, "x", "w") == 3
    writes2 = [c for c, _, _ in m.transitions_flat(s) if c[0] == R_WRITE]
    assert [c[3] for c in writes2] == [3, m.never]


def test_write_sets_summaries_and_update_bit():
    m = AbMachine(PROG, 2)
    s = m.initial_flat((0, 1))
    _, _, s = _step(m, s, lambda c: c[0] == R_LOCAL)
    core, eff, s2 = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == 1)
    assert _u(m, s2, 1) == {"x"} and _c(m, s2, "x", "w") == 1
    assert eff == (("copy", 5, 2), ("copy", 4, 2))  # x@w, x@c1 := a
    # a write flushing at the last context copies into x@w alone: nothing
    # ever reads x@c2
    s = m.initial_flat((0, 0))
    _, _, s = _step(m, s, lambda c: c[0] == R_LOCAL)
    _, eff, _ = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == 2)
    assert eff == (("copy", 5, 2),)


def test_read_picks_buffer_or_memory():
    m = AbMachine(PROG, 2)
    # reader runs first: nothing buffered, so it reads the shared summary
    s = m.initial_flat((1, 0))
    core, eff, _ = _step(m, s, lambda c: c[0] in (R_BUF_READ, R_MEM_READ))
    assert core[0] == R_MEM_READ
    assert eff == (("copy", 3, 1),)  # b := x
    # writer with a pending never-commit write reads its own summary
    s = m.initial_flat((0, 0))
    _, _, s = _step(m, s, lambda c: c[0] == R_LOCAL)
    _, _, s = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == m.never)
    _, _, s = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == m.never)
    core, eff, _ = _step(m, s, lambda c: c[0] in (R_BUF_READ, R_MEM_READ))
    assert core[0] == R_BUF_READ
    # a := x@w, then a is dead and reset
    assert eff == (("copy", 2, 5), ("copy", 2, 0))


def test_switch_commits_and_canonicalizes():
    m = AbMachine(PROG, 2)
    s = m.initial_flat((0, 1))
    _, _, s = _step(m, s, lambda c: c[0] == R_LOCAL)
    _, _, s = _step(m, s, lambda c: c[0] == R_WRITE and c[3] == 1)
    core, eff, s2 = _step(m, s, lambda c: c[0] == R_SWITCH)
    assert core == (R_SWITCH, 0, -1, 2)
    # the finished context's schedule entry reads the out-of-range marker nt
    assert s2[m.J] == 2 and s2[m.ACT:m.ACT + m.k] == (m.nt, 1)
    assert _u(m, s2, 1) == set() and _c(m, s2, "x", "w") == 0
    # commit is the copy shared := ctx summary, then the dead resets
    assert eff == (("copy", 1, 4), ("copy", 4, 0), ("copy", 5, 0))
    # no switch out of the last context
    assert not any(c[0] == R_SWITCH for c, _, _ in m.transitions_flat(s2))


def test_label_renders():
    m = AbMachine(PROG, 2)
    s = m.initial_flat((0, 1))
    assert [m.render_label(core) for core, _, _ in m.transitions_flat(s)] == [
        "w: q0 -> q1 : a := * [local]", "w: switch to context 2"]
    assert (m.render_label((R_WRITE, 0, 1, 2))
            == "w: q1 -> q2 : write x a [write] [flush@2]")
    assert (m.render_label((R_WRITE, 0, 1, m.never))
            == "w: q1 -> q2 : write x a [write] [flush@3]")
    assert m.render_label((R_MEM_READ, 1, 0, -1)) == "r: q0 -> q1 : read x b [memory_read]"
    assert m.render_label((R_SWITCH, 0, -1, 2)) == "w: switch to context 2"


def test_effect_renders():
    m = AbMachine(PROG, 2)  # columns $zero x a b x@c1 x@w
    assert m.render_effect(("copy", 2, 0)) == "a := $zero"
    assert m.render_effect(("fresh", 2)) == "a := *"
    assert m.render_effect(("guard", NEQ, 2, 3)) == "assume a != b"
    assert m.render_effect(("copy", 1, 4)) == "x := x@c1"


def test_apply_effects():
    m = AbMachine(PROG, 2)
    vals = tuple(range(m.nab))
    got = m.apply_effects(vals, [("copy", 1, 2)])
    assert got[1] == vals[2]
    with pytest.raises(GuardFailedError):
        m.apply_effects(vals, [("guard", EQ, 1, 2)])
    with pytest.raises(ValueError):
        m.apply_effects(vals, [("fresh", 1)])
    got = m.apply_effects(vals, [("fresh", 1)], fresh_value=9)
    assert got[1] == 9


def test_dead_register_reset_appended():
    # b is read once and never again: the guard's effects reset it afterwards
    t = _thread("t", ["a", "b"], [
        Transition("q0", NewValue("b"), "q1"),
        Transition("q1", Guard(EQ, "b", "b"), "q2"),
        Transition("q2", NewValue("a"), "q3"),
        Transition("q3", Write("x", "a"), "q4"),
    ])
    m = AbMachine(Program.make([t], ["x"]), 1)
    # sentinel, a, b: x is never read, so it has no summaries at all
    assert m.names == ("$zero", "a", "b")
    s = m.initial_flat((0,))
    _, eff, s = _step(m, s, lambda c: c[2] == 0)
    assert eff == (("fresh", 2),)
    _, eff, s = _step(m, s, lambda c: c[2] == 1)
    assert eff == (("guard", EQ, 2, 2), ("copy", 2, 0))
    # a is live until the write, which resets it
    _, eff, s = _step(m, s, lambda c: c[2] == 2)
    assert eff == (("fresh", 1),)
    _, eff, s = _step(m, s, lambda c: c[2] == 3 and c[3] == m.never)
    assert eff == (("copy", 1, 0),)


def test_unassigned_and_unused_registers_get_no_column():
    # z is never assigned, so it reads the sentinel; d is drawn but never
    # used, so its draw and its read emit nothing
    t = _thread("t", ["z", "d", "e"], [
        Transition("q0", NewValue("d"), "q1"),
        Transition("q1", NewValue("e"), "q2"),
        Transition("q2", Guard(NEQ, "e", "z"), "q3"),
        Transition("q3", Read("x", "d"), "q4"),
    ])
    m = AbMachine(Program.make([t], ["x"]), 1)
    rid = m.idx.rid
    assert (m.i_reg(rid["z"]), m.i_reg(rid["d"]), m.i_reg(rid["e"])) == (0, None, 2)
    assert m.names == ("$zero", "x", "e")
    s = m.initial_flat((0,))
    _, eff, s = _step(m, s, lambda c: c[2] == 0)
    assert eff == ()
    _, eff, s = _step(m, s, lambda c: c[2] == 1)
    assert eff == (("fresh", 2),)
    _, eff, s = _step(m, s, lambda c: c[2] == 2)
    assert eff == (("guard", NEQ, 2, 0), ("copy", 2, 0))
    _, eff, s = _step(m, s, lambda c: c[2] == 3)
    assert eff == ()


def test_bakery_1_keeps_no_memory_summaries():
    # nothing reads bakery(1)'s variables: only the two drawn registers that
    # are used stay, and t1_rF (never assigned) reads the sentinel
    g = gen_bakery(1)
    m = AbMachine(g.program, 4)
    assert m.names == ("$zero", "t1_rT", "t1_r1")
    assert m.i_reg(m.idx.rid["t1_rF"]) == 0


def test_no_machine_has_a_last_context_summary():
    rng = random.Random(0)
    progs = [PROG, gen_bakery(2).program] + [random_program(rng) for _ in range(40)]
    for p in progs:
        for k in (1, 2, 3):
            m = AbMachine(p, k)
            assert all(m.i_ctx(x, k) is None for x in range(m.nx))


def test_values_round_trip():
    # a value vector keyed by column name loses nothing: names are unique
    m = AbMachine(PROG, 2)
    vals = tuple(i % 3 for i in range(m.nab))
    by_name = dict(zip(m.names, vals))
    assert tuple(by_name[n] for n in m.names) == vals


def _writers(n):
    return [_thread(f"t{i}", [f"r{i}"], [Transition("q0", Write("x", f"r{i}"), "q1")])
            for i in range(n)]


def _chain(n):
    return [_thread("t", ["a"], [Transition(f"q{i}", Guard(EQ, "a", "a"), f"q{i + 1}")
                                 for i in range(n - 1)])]


@pytest.mark.parametrize("threads,target,form", [
    (_writers(255), Target("t0", "q1"), bytes),
    (_writers(256), Target("t0", "q1"), tuple),
    (_chain(256), Target("t", "q255"), bytes),
], ids=["255-threads", "256-threads", "256-states"])
def test_machine_decides_models_past_the_byte_limits(threads, target, form):
    # a key holds one natural per component, so thread ids and thread states
    # past 255 build and are decided like any other model; the search packs
    # control states as bytes up to 255 threads and 256 states per thread
    p = Program.make(threads, ["x"])
    for k in (1, 2):
        assert ab_machine(p, k).control_form is form
        v = check_reach(p, target, k)
        assert v.status in (REACHABLE, UNREACHABLE)
        if v.reachable:
            run = concretize_witness(p, v.witness)
            assert validate_witness(p, run)
            tso_run = concrete_run_to_tso(p, run)
            tti, tsi = ab_machine(p, k).idx.target_idx(target)
            assert tso_run.final.st[tti] == tsi
            assert cb_partition_check(tso_run, k)


def _reads_a_written_column(effects):
    """Whether some effect reads a column an earlier one of the list wrote."""
    written = set()
    for e in effects:
        # a copy reads e[2], a guard e[2] and e[3], a fresh value nothing
        if written.intersection(e[2:]):
            return True
        if e[0] != "guard":
            written.add(e[1])
    return False


def _control_closure_switches(m):
    """Effect lists of every switch move from the control states reachable
    over successors, ignoring values (a superset of the search's)."""
    seen = set(m.all_initial_flats())
    todo = list(seen)
    while todo:
        for core, eff, s2 in m.successors(todo.pop()):
            if core[0] == R_SWITCH:
                yield eff
            if s2 not in seen:
                seen.add(s2)
                todo.append(s2)


def test_switch_flush_copies_read_no_written_column(monkeypatch):
    # A switch flushes as plain copies applied in order; that equals the
    # simultaneous flush exactly when no effect reads a column an earlier
    # effect of the same list wrote.
    lists = []
    for name in ("mp.tso", "sb.tso"):
        p = parse_program_with_target((CORPUS / name).read_text())[0]
        for k in range(1, 6):
            lists.extend(_control_closure_switches(ab_machine(p, k)))
    rng = random.Random(0)
    for _ in range(400):
        p = random_program(rng)
        for k in (1, 2, 3):
            lists.extend(_control_closure_switches(ab_machine(p, k)))
    # bakery(2)'s control closure is too large at k = 4; take every switch
    # move of the control states the search expands instead
    expanded = []
    keys = AbMachine.table_keys

    def spy(self, s):
        expanded.append((self, tuple(s)))
        return keys(self, s)

    monkeypatch.setattr(AbMachine, "table_keys", spy)
    g = gen_bakery(2)
    before = len(lists)
    for k in range(1, 5):
        check_reach(g.program, g.target, k)
    for m, s in expanded:
        lists.extend(eff for core, eff, _ in m.transitions_flat(s) if core[0] == R_SWITCH)
    assert len(lists) - before > 4_000
    # resets copy the sentinel (column 0); every other copy is a flush
    flushes = sum(1 for eff in lists for e in eff if e[0] == "copy" and e[2] != 0)
    assert len(lists) > 80_000 and flushes > 30_000
    assert not any(map(_reads_a_written_column, lists))
