import random
import time
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from tsocbmc import (
    BOUND_EXHAUSTED, Bounds, ConcretizationError, EQ, Guard, ModelTooLargeError,
    NewValue, Program, REACHABLE, Read, Target,
    Thread, Transition, UNREACHABLE, Write, abstract_of, cb_partition_check,
    cb_reach_bounded, check_reach, concrete_run_to_tso, concretize_witness,
    inflate, le, lt, parse_program_with_target, replace, validate_witness,
)
from tsocbmc.abmachine import ab_machine
from tsocbmc.engine import _seed_order
from tsocbmc.model import program_index, states_in_order
from tsocbmc.relabs import UNKNOWN

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _load(name):
    return parse_program_with_target((CORPUS / name).read_text())


def _thread(tid, regs, trs, init="q0"):
    return Thread(tid, states_in_order(init, trs), tuple(regs), init, tuple(trs))


def test_mp_flip_matches_concrete_oracle():
    p, tgt = _load("mp.tso")
    v1 = check_reach(p, tgt, 1)
    assert not v1.reachable and v1.status == UNREACHABLE
    v2 = check_reach(p, tgt, 2)
    assert v2.reachable and v2.status == REACHABLE
    b = Bounds(2, 2, 60)
    assert not cb_reach_bounded(p, tgt, 1, b).reachable
    assert cb_reach_bounded(p, tgt, 2, b).reachable


def test_sb_flip_matches_concrete_oracle():
    p, tgt = _load("sb.tso")
    assert not check_reach(p, tgt, 2).reachable
    v3 = check_reach(p, tgt, 3)
    assert v3.reachable
    b = Bounds(2, 2, 60)
    assert not cb_reach_bounded(p, tgt, 2, b).reachable
    assert cb_reach_bounded(p, tgt, 3, b).reachable


def test_a_switch_flushes_every_buffered_write():
    # t0 buffers two writes in one context, the second of a value drawn
    # after the first; t1 tells x from y only if the switch to it flushes
    # both.  A switch that flushed only its first buffered write would
    # leave y at 0 and answer unreachable at every k
    p, tgt = parse_program_with_target(
        "domain nat\nvars x y\n"
        "thread t0 {\n  regs t0a\n  init a0\n"
        "  a0 -> a1 : write x t0a\n  a1 -> a2 : t0a := *\n"
        "  a2 -> a3 : write y t0a\n}\n"
        "thread t1 {\n  regs t1a t1b\n  init b0\n"
        "  b0 -> b1 : read x t1a\n  b1 -> b2 : read y t1b\n"
        "  b2 -> b3 : assume t1a != t1b\n}\n"
        "target t1 : b3\n")
    b = Bounds(2, 3, 300)
    for k, want, states in ((1, False, 3), (2, True, 42), (3, True, 68)):
        v = check_reach(p, tgt, k)
        assert (v.reachable, v.stats.states_explored) == (want, states)
        assert cb_reach_bounded(p, tgt, k, b).reachable == want
        if want:
            assert validate_witness(p, concretize_witness(p, v.witness))


def test_a_write_before_a_stuck_guard_is_still_seen():
    # w's write of a nonzero value is followed by a guard that never holds;
    # r sees the value only in a second context, after w's switch flushes
    # it.  Merging the write into the stuck guard after it would lose the
    # write and answer unreachable at every k
    p, tgt = parse_program_with_target(
        "domain nat\nvars x\n"
        "thread w {\n  regs w_one w_zero\n  init w0\n"
        "  w0 -> w1 : w_one := *\n  w1 -> w2 : assume w_one != w_zero\n"
        "  w2 -> w3 : write x w_one\n  w3 -> w4 : assume w_one = w_zero\n}\n"
        "thread r {\n  regs r_x r_zero\n  init r0\n"
        "  r0 -> r1 : read x r_x\n  r1 -> seen : assume r_x != r_zero\n}\n"
        "target r : seen\n")
    b = Bounds(2, 3, 300)
    for k, want in ((1, False), (2, True)):
        v = check_reach(p, tgt, k)
        assert v.reachable == want
        assert cb_reach_bounded(p, tgt, k, b).reachable == want
    assert v.stats.states_explored == 17


def test_witness_pipeline_end_to_end():
    p, tgt = _load("mp.tso")
    v = check_reach(p, tgt, 2)
    run = concretize_witness(p, v.witness)
    assert validate_witness(p, run)
    tso_run = concrete_run_to_tso(p, run)
    assert cb_partition_check(tso_run, 2)
    idx = program_index(p)
    tti, tsi = idx.target_idx(tgt)
    assert tso_run.final.st[tti] == tsi


def test_witness_determinism():
    p, tgt = _load("mp.tso")
    v1 = check_reach(p, tgt, 2)
    v2 = check_reach(p, tgt, 2)
    assert v1.witness == v2.witness
    assert v1.stats.states_explored == v2.stats.states_explored


def test_bound_exhaustion():
    p, tgt = _load("sb.tso")
    v = check_reach(p, tgt, 3, max_states=50)
    assert not v.reachable and v.status == BOUND_EXHAUSTED


def _pre_guard_values(run, m, pick):
    # values feeding a guard step live in the step before it; the machine
    # resets registers right after their last read, so "after" can be zeroed
    for n, step in enumerate(run.steps):
        _, ti, pos, _ = step.label
        d = m.idx.thread_transitions[ti][pos] if pos >= 0 else None
        if d is not None and isinstance(d.op, Guard) and pick(d.op):
            return run.steps[n - 1].values if n else (0,) * m.nab
    raise AssertionError("guard step not found")


def _offset_guard_witness(above_zero=False):
    # the fresh value's rank only promises b > a; the offset asks for more.
    # With above_zero, a must also exceed z, a register that stays 0
    guards = [Guard(lt(0), "z", "a")] if above_zero else []
    ops = [NewValue("a"), *guards, NewValue("b"), Guard(lt(3), "a", "b")]
    t = _thread("t", ["a", "b", "z"], [
        Transition(f"q{n}", op, f"q{n + 1}") for n, op in enumerate(ops)])
    p = Program.make([t], ["x"])
    v = check_reach(p, Target("t", f"q{len(ops)}"), 1)
    assert v.reachable
    return p, v.witness


def test_offset_guard_needs_inflation():
    p, witness = _offset_guard_witness()
    run = concretize_witness(p, witness)
    assert validate_witness(p, run)
    m = ab_machine(p, 1)
    pre = _pre_guard_values(run, m, lambda op: op.rel == lt(3))
    a = pre[m.i_reg(m.idx.rid["a"])]
    b = pre[m.i_reg(m.idx.rid["b"])]
    assert a + 3 < b
    # the largest guard offset is 3, so values are numbered 4 apart
    assert all(v % 4 == 0 for s in run.steps for v in s.values)


def test_values_are_spaced_one_past_the_largest_offset():
    # a is drawn above the sentinel and b above a; with the largest guard
    # offset 3 their points are numbered 4 apart
    p, witness = _offset_guard_witness(above_zero=True)
    run = concretize_witness(p, witness)
    assert validate_witness(p, run)
    assert [s.fresh_value for s in run.steps if s.fresh_value is not None] == [4, 8]


def _offset_guard_program(rng):
    """Two threads, each a chain of 3-5 steps over its own three registers:
    fresh values, guards `lt(n)`/`le(n)` with n in 1..3 between two distinct
    registers, reads and writes of x and y."""
    threads = []
    for t in range(2):
        n = rng.randint(3, 5)
        states = tuple(f"q{i}" for i in range(n + 1))
        regs = (f"t{t}a", f"t{t}b", f"t{t}c")
        trs = []
        for i in range(n):
            r1, r2 = rng.sample(regs, 2)
            x = rng.choice(("x", "y"))
            roll = rng.random()
            if roll < 0.35:
                op = NewValue(r1)
            elif roll < 0.7:
                op = Guard(rng.choice((lt, le))(rng.randint(1, 3)), r1, r2)
            elif roll < 0.85:
                op = Read(x, r1)
            else:
                op = Write(x, r1)
            trs.append(Transition(states[i], op, states[i + 1]))
        threads.append(Thread(f"t{t}", states, regs, "q0", tuple(trs)))
    return Program.make(threads, ("x", "y"))


def test_random_offset_guard_witnesses_rebuild_to_tso_runs():
    # the witnesses of selftest.random_program carry no guard with an
    # offset, so the spacing of drawn values gets its own random programs
    rng = random.Random(2)
    with_offsets = 0
    for _ in range(200):
        p = _offset_guard_program(rng)
        th = rng.choice(p.threads)
        tgt, k = Target(th.id, th.states[-1]), rng.randint(1, 3)
        v = check_reach(p, tgt, k)
        if not v.reachable:
            continue
        trs = program_index(p).thread_transitions
        ops = [trs[ti][pos].op for _, ti, pos, _ in (s.label for s in v.witness.steps)
               if pos >= 0]
        if not any(isinstance(op, Guard) and op.rel.n for op in ops):
            continue
        with_offsets += 1
        run = concretize_witness(p, v.witness)
        assert validate_witness(p, run)
        tso_run = concrete_run_to_tso(p, run)
        tti, tsi = program_index(p).target_idx(tgt)
        assert tso_run.final.st[tti] == tsi and cb_partition_check(tso_run, k)
    assert with_offsets == 23


def test_dead_value_keeps_its_place():
    # sb's a_one is drawn at step 0 and dies before b_one is drawn; b_one
    # lands right above the sentinel, below a_one's old value, which keeps
    # its place in the order of drawn values
    p, tgt = _load("sb.tso")
    run = concretize_witness(p, check_reach(p, tgt, 3).witness)
    assert validate_witness(p, run)
    names = ab_machine(p, 3).names
    a_one, b_one = names.index("a_one"), names.index("b_one")
    assert run.steps[0].fresh_value == run.steps[0].values[a_one] == 2
    n = next(n for n, s in enumerate(run.steps) if s.values[b_one])
    assert all(s.values[a_one] == 0 for s in run.steps[n:])
    assert run.steps[n].fresh_value == run.steps[n].values[b_one] == 1


def test_rss_fallback_reads_the_platforms_unit(monkeypatch):
    # without /proc/self/statm the cap reads the peak, ru_maxrss: bytes on
    # macOS, KiB elsewhere
    import resource
    import sys
    from tsocbmc import verdict

    def no_statm(*args, **kwargs):
        raise OSError("no /proc/self/statm")

    peak = {"darwin": 512 * 2**20, "linux": 512 * 2**10}
    monkeypatch.setattr(verdict, "open", no_statm, raising=False)
    monkeypatch.setattr(resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=peak[sys.platform]))
    for platform in peak:
        monkeypatch.setattr(sys, "platform", platform)
        assert verdict._rss_mb() == 512


def test_fresh_between_classes_inflates_the_gap():
    # c must land strictly between a and a+1, which has no integer room
    t = _thread("t", ["a", "b", "c"], [
        Transition("q0", NewValue("a"), "q1"),
        Transition("q1", NewValue("b"), "q2"),
        Transition("q2", Guard(lt(0), "a", "b"), "q3"),
        Transition("q3", NewValue("c"), "q4"),
        Transition("q4", Guard(lt(0), "a", "c"), "q5"),
        Transition("q5", Guard(lt(0), "c", "b"), "q6"),
    ])
    p = Program.make([t], ["x"])
    v = check_reach(p, Target("t", "q6"), 1)
    assert v.reachable
    run = concretize_witness(p, v.witness)
    assert validate_witness(p, run)
    m = ab_machine(p, 1)
    ia, ib, ic = (m.i_reg(m.idx.rid[r]) for r in "abc")
    pre1 = _pre_guard_values(run, m, lambda op: op.left == "a" and op.right == "c")
    assert pre1[ia] < pre1[ic]
    pre2 = _pre_guard_values(run, m, lambda op: op.left == "c" and op.right == "b")
    assert pre2[ic] < pre2[ib]


def test_inflate_preserves_validity_and_ranks():
    p, tgt = _load("mp.tso")
    run = concretize_witness(p, check_reach(p, tgt, 2).witness)
    shifted = inflate(run, 1, 5)
    assert validate_witness(p, shifted)
    for s, s2 in zip(run.steps, shifted.steps):
        assert abstract_of(s.values) == abstract_of(s2.values)
    assert inflate(run, 1, 0) == run
    with pytest.raises(ValueError):
        inflate(run, 0, 1)


def test_validate_names_the_step_of_a_label_not_enabled():
    # mp's witness starts with two steps of the writer; swapped, the second
    # transition comes first, from a state the thread is not in
    p, tgt = _load("mp.tso")
    run = concretize_witness(p, check_reach(p, tgt, 2).witness)
    steps = (run.steps[1], run.steps[0]) + run.steps[2:]
    with pytest.raises(ConcretizationError, match="^step 0: label .* is not enabled$"):
        validate_witness(p, replace(run, steps=steps))


def test_validate_names_the_step_of_a_missing_fresh_value():
    # mp's witness draws a fresh value at step 0
    p, tgt = _load("mp.tso")
    run = concretize_witness(p, check_reach(p, tgt, 2).witness)
    assert run.steps[0].fresh_value is not None
    steps = (replace(run.steps[0], fresh_value=None),) + run.steps[1:]
    with pytest.raises(ConcretizationError,
                       match="^step 0: a natural fresh value is required$"):
        validate_witness(p, replace(run, steps=steps))


def test_tso_reconstruction_values_follow_witness():
    p, tgt = _load("mp.tso")
    run = concretize_witness(p, check_reach(p, tgt, 2).witness)
    tso_run = concrete_run_to_tso(p, run)
    # the reader really saw the nonzero payload the writer published
    idx = program_index(p)
    assert tso_run.final.rval[idx.rid["r_data"]] != 0
    assert tso_run.final.mem[idx.vid["data"]] != 0


def test_seed_order_single_thread():
    t = _thread("t", ["a"], [Transition("q0", NewValue("a"), "q1")])
    m = ab_machine(Program.make([t], ["x"]), 1)
    assert list(_seed_order(m, 0)) == [(0,)]


def test_seed_order_properties():
    p, _ = _load("sb.tso")
    m = ab_machine(p, 4)
    seeds = list(_seed_order(m, 0))
    assert len(seeds) == len(set(seeds))
    for act in seeds:
        assert act[-1] == 0
        assert all(x != y for x, y in zip(act, act[1:]))
    # two alternating threads over 4 slots: only the phase ending on the
    # target qualifies
    assert seeds == [(1, 0, 1, 0)]


def test_seed_order_matches_the_sorted_product():
    # the reference is the eager form: every product, filtered to the
    # repeat-free schedules that end on the target thread, then sorted
    def eager(nt, k, tti):
        return sorted(act for act in product(range(nt), repeat=k)
                      if act[-1] == tti
                      and all(a != b for a, b in zip(act, act[1:])))

    for nt in range(1, 5):
        for k in range(1, 8):
            for tti in range(nt):
                m = SimpleNamespace(nt=nt, k=k)
                assert list(_seed_order(m, tti)) == eager(nt, k, tti)


def test_seed_order_is_lazy():
    # the eager form would build 3**40 products before the first schedule
    start = time.perf_counter()
    first = next(_seed_order(SimpleNamespace(nt=3, k=40), 2))
    assert time.perf_counter() - start < 1.0
    assert first == (0, 1) * 19 + (0, 2)


def test_one_thread_program_is_searched_in_one_context():
    # a single thread's buffer updates are its own steps, so one context
    # holds every run of it: a 256-state guard chain costs the same at any
    # k, and its one-context witness fits any k.  The limit on k still
    # applies to the k asked for
    t = _thread("t", ["a"], [Transition(f"q{i}", Guard(EQ, "a", "a"), f"q{i + 1}")
                             for i in range(255)])
    p = Program.make([t], ["x"])
    tgt = Target("t", "q255")
    for k in (2, 254):
        v = check_reach(p, tgt, k)
        assert v.reachable and v.stats.states_explored == 255
        assert (v.witness.k, v.witness.act) == (1, ("t",))
        run = concretize_witness(p, v.witness)
        assert validate_witness(p, run)
        assert cb_partition_check(concrete_run_to_tso(p, run), k)
    with pytest.raises(ModelTooLargeError, match="k=255"):
        check_reach(p, tgt, 255)


def test_monotone_in_k():
    p, tgt = _load("mp.tso")
    reach = [check_reach(p, tgt, k).reachable for k in (1, 2, 3)]
    assert reach == sorted(reach)  # once reachable, stays reachable
    assert reach[1] and reach[2]


def test_memory_cap_reads_current_not_peak_rss():
    # a large allocation freed before the search raises the lifetime peak
    # but not the resident size; the cap must only see the latter
    from tsocbmc.engine import _rss_mb
    from tsocbmc.generators import gen_bakery
    g = gen_bakery(1)
    base = _rss_mb()
    blob = b"\x01" * (300 * 2**20)
    assert _rss_mb() > base + 250
    del blob
    # the cap is sampled every 4,096 states, so the search must be longer
    v = check_reach(g.program, g.target, 6, max_mb=base + 150)
    assert v.status == UNREACHABLE
    assert v.stats.states_explored == 5731


def test_memory_cap_stops_the_search(monkeypatch):
    from tsocbmc import engine
    from tsocbmc.generators import gen_bakery
    monkeypatch.setattr(engine, "_rss_mb", lambda: 1e6)
    g = gen_bakery(1)
    # 5,731 states uncapped: the memory is sampled after the batch that
    # takes the search past 4,096 explored states
    v = check_reach(g.program, g.target, 6, max_mb=100)
    assert v.status == BOUND_EXHAUSTED and v.stats.stop_reason == "max_mb"
    assert v.stats.states_explored == 4099


def _expansions(monkeypatch, program, target, k):
    """Run check_reach; the machine and the control states it expanded, in
    expansion order and in the form the search holds them."""
    from tsocbmc.abmachine import AbMachine
    machines, states = set(), []
    real = AbMachine.table_keys

    def spy(self, s):
        machines.add(self)
        states.append(s)
        return real(self, s)

    with monkeypatch.context() as mp:
        mp.setattr(AbMachine, "table_keys", spy)
        v = check_reach(program, target, k)
    assert len(machines) <= 1
    return v, (machines.pop() if machines else None), states


def test_control_successors_computed_once_per_control_state(monkeypatch):
    # many control states share the active thread's part: its moves are
    # computed once per move key and the switch once per switch key, each
    # fill one transitions_flat call, reused for the rest of that search only
    from tsocbmc.abmachine import AbMachine
    from tsocbmc.generators import gen_bakery
    calls = []
    real = AbMachine.transitions_flat

    def spy(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(AbMachine, "transitions_flat", spy)
    g = gen_bakery(1)
    v, m, states = _expansions(monkeypatch, g.program, g.target, 2)
    assert v.status == UNREACHABLE
    assert v.stats.states_explored == 145
    assert v.stats.control_states == len(states) == len(set(states)) == 101
    keys = [m.table_keys(s) for s in states]
    move_keys = {mk for mk, _ in keys}
    switch_keys = {sk for _, sk in keys if sk is not None}
    assert v.stats.move_keys == len(move_keys) + len(switch_keys)
    # a call fills every key of its state the tables lack, so each call is
    # on the first expanded state with some key
    firsts = {}
    for s, (mk, sk) in zip(states, keys):
        firsts.setdefault(("move", mk), s)
        if sk is not None:
            firsts.setdefault(("switch", sk), s)
    assert sorted(map(tuple, calls)) == sorted({tuple(s) for s in firsts.values()})
    assert len(move_keys) < len(calls) < v.stats.move_keys < 101
    # a second search on the same machine starts from empty tables
    n = len(calls)
    calls.clear()
    v2 = check_reach(g.program, g.target, 2)
    assert v2.stats.states_explored == 145
    assert v2.stats.move_keys == v.stats.move_keys and len(calls) == n


def test_keyed_tables_splice_transitions_flat(monkeypatch):
    # The table keys hold all that the entries read: for every control state
    # a search expands, the entries filled on the first state with each of
    # its keys (as check_reach fills them) splice into the same successors
    # as the state's own transitions_flat entries: labels, effects,
    # successor control states and order.
    from tsocbmc.generators import gen_bakery
    from tsocbmc.selftest import random_program, random_target
    cases = [(gen_bakery(1), 4), (gen_bakery(2), 3), (gen_bakery(2), 4)]
    cases = [(g.program, g.target, k) for g, k in cases]
    for name in ("sb.tso", "mp.tso"):
        p, tgt = _load(name)
        # padded to 257 states, the search holds control tuples as tuples
        cases += [(q, tgt, k) for q in (p, _padded(p, 257)) for k in (1, 2, 3)]
    rng = random.Random(31)
    for n_threads in (2, 3) * 60:
        p = random_program(rng, n_threads)
        cases.append((p, random_target(rng, p), 3))
    expanded, forms = [], set()
    for n, (p, tgt, k) in enumerate(cases):
        _, m, states = _expansions(monkeypatch, p, tgt, k)
        forms.update(map(type, states))
        moves, switches = {}, {}
        for s in states:
            mk, sk = m.table_keys(s)
            own = m.transitions_flat(s)
            switch = own.pop() if sk is not None else None
            moves.setdefault(mk, own)
            if sk is not None:
                switches.setdefault(sk, switch)
            got = m.spliced(s, moves[mk], switches.get(sk))
            assert got == m.spliced(s, own, switch), (n, k, tuple(s))
        expanded.append(len(states))
    # the random programs add about 1,900 control states
    assert sum(expanded) > 9_000 and sum(expanded[-120:]) > 1_500
    assert forms == {bytes, tuple}


def test_expanded_control_states_differ_outside_the_last_u_row(monkeypatch):
    # only the switch out of a context j < k reads u(j), so a write that
    # flushes at k leaves u(k) alone: no two control states one search
    # expands differ only in that row
    from tsocbmc.selftest import random_program, random_target
    rng = random.Random(3)
    expanded = 0
    for n_threads in (2, 3) * 50:
        p = random_program(rng, n_threads)
        tgt = random_target(rng, p)
        for k in (2, 3):
            _, m, states = _expansions(monkeypatch, p, tgt, k)
            if m is None:
                continue
            uk = m.U + (m.k - 1) * m.nx
            rest = {s[:uk] + s[uk + m.nx:] for s in states}
            assert len(rest) == len(states), (n_threads, k)
            expanded += len(states)
    assert expanded > 1_500


def test_state_counts_after_summary_slicing():
    # The machine keeps only summaries some step can read, and the search
    # walks only the schedules that end on the target thread.  bakery(2)
    # k=3 is the benchmark's large exhaustive search: its 142,000 states
    # pair only 2,764 control tuples with 3,522 rank tuples, and the rank
    # step is computed once per distinct (rank tuple, effect list): 18,005
    # memo misses instead of 251,674 lookups, 17,849 of them in rank
    # kernels and 156 in rel_apply calls.
    from tsocbmc.generators import gen_bakery
    for n, k, states, control, ranks, calls in (
            (1, 4, 1020, 701, 5, 14), (2, 2, 410, 122, 37, 209),
            (2, 3, 142000, 2764, 3522, 18005)):
        g = gen_bakery(n)
        v = check_reach(g.program, g.target, k)
        assert v.status == UNREACHABLE
        s = v.stats
        assert (s.states_explored, s.control_states) == (states, control)
        assert (s.rank_tuples, s.rel_apply_calls) == (ranks, calls)
    # one table fill per distinct key: 230 move keys and 59 switch keys
    assert s.move_keys == 289


def test_per_program_caches_are_bounded():
    # program_index and ab_machine keep a bounded number of entries, so a
    # sweep over many programs does not grow the process
    from tsocbmc import abmachine, model
    for i in range(max(model._PROGRAMS, abmachine._MACHINES) + 10):
        t = _thread("t", ["a"], [Transition("q0", Guard(EQ, "a", "a"), f"q{i}")])
        assert check_reach(Program.make([t], ["x"]), Target("t", f"q{i}"), 1).reachable
    assert model.program_index.cache_info().currsize == model._PROGRAMS
    assert abmachine.ab_machine.cache_info().currsize == abmachine._MACHINES


def test_witness_names_the_first_move_to_a_shared_successor():
    # Both transitions out of q0 reach q1 with the all-equal rank tuple: the
    # guard passes and the fresh value may join the sentinel's class.  The
    # search records only the parent state, so the witness recovers the
    # label; it must name the transition declared first, in either order.
    from tsocbmc.relabs import rel_apply, rel_initial
    moves = [Transition("q0", Guard(EQ, "a", "b"), "q1"),
             Transition("q0", NewValue("a"), "q1")]
    for first in (0, 1):
        t = _thread("t", ["a", "b"], [moves[first], moves[1 - first],
                                      Transition("q1", Guard(EQ, "a", "b"), "q2")])
        p = Program.make([t], ["x"])
        m = ab_machine(p, 1)
        r0 = rel_initial(m.nab)
        out = m.successors(m.initial_flat((0,)))
        assert len(out) == 2 and out[0][2] == out[1][2]
        assert all(r0 in rel_apply(r0, eff) for _, eff, _ in out)
        v = check_reach(p, Target("t", "q2"), 1)
        assert v.reachable
        assert [s.label[2] for s in v.witness.steps] == [0, 2]
        assert v.witness.steps[0].effects == out[0][1]
        run = concretize_witness(p, v.witness)
        assert validate_witness(p, run)
        assert cb_partition_check(concrete_run_to_tso(p, run), 1)


def test_search_calls_the_public_encoding(monkeypatch):
    # the interned search checks each new control tuple, not each new rank
    # tuple, through canonical_key/decode_key, and computes each memo miss
    # once: as an UNKNOWN entry of a batch given to the effect list's rank
    # kernel or, for a list with a fresh value, in one rel_apply call; a
    # witness reads the memo entries the search filled, so its recovery
    # runs neither.  The benchmark's traced run wraps these engine globals
    # and fails when one of them sees no call
    from tsocbmc import engine
    from tsocbmc.generators import gen_bakery
    calls = dict.fromkeys(("rel_apply", "canonical_key", "decode_key"), 0)
    kernel_unknown = 0

    def counted(name):
        real = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    real_kernel = engine.rank_kernel

    def counted_kernel(effects):
        kernel = real_kernel(effects)
        if kernel is None:
            return None

        def wrapper(rids, ranks, ids, rank_id, row):
            nonlocal kernel_unknown
            kernel_unknown += [row[rid] for rid in rids].count(UNKNOWN)
            return kernel(rids, ranks, ids, rank_id, row)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    monkeypatch.setattr(engine, "rank_kernel", counted_kernel)
    g = gen_bakery(1)
    sb, sb_target = _load("sb.tso")
    for program, target, k, status, states in (
            (g.program, g.target, 4, UNREACHABLE, 1020),
            (sb, sb_target, 3, REACHABLE, 580)):
        calls.update(dict.fromkeys(calls, 0))
        kernel_unknown = 0
        v = check_reach(program, target, k)
        assert v.status == status and v.stats.states_explored == states
        assert (v.witness is not None) == (status == REACHABLE)
        assert all(calls.values()) and kernel_unknown, (calls, kernel_unknown)
        # the UNKNOWN entries the kernels were given and the rel_apply calls
        # add up to the misses
        assert kernel_unknown + calls["rel_apply"] == v.stats.rel_apply_calls


def _ordered_chain(n):
    """One thread that draws r1 < r2 < ... < rn, each above the one before,
    and then checks the chain again, so that all n values are live and
    distinct at once: n + 1 summary columns with the sentinel, and a top
    rank of n."""
    trs = [f"  d{i} -> g{i} : r{i} := *\n  g{i} -> d{i + 1} : assume r{i - 1} < r{i}"
           for i in range(1, n + 1)]
    trs += [f"  d{n + i} -> d{n + i + 1} : assume r{i - 1} < r{i}"
            for i in range(1, n + 1)]
    regs = " ".join(f"r{i}" for i in range(n + 1))
    return parse_program_with_target(
        f"domain nat\nvars x\nthread t {{\n  regs {regs}\n  init d1\n"
        + "\n".join(trs) + f"\n}}\ntarget t : d{2 * n + 1}\n")


@pytest.mark.parametrize("n, form, states", [(255, bytes, 65_790),
                                             (257, tuple, 66_820)])
def test_ranks_past_one_byte_are_decided(monkeypatch, n, form, states):
    # a search keeps rank tuples as bytes up to 256 summary columns, where
    # every rank is below 256, and steps its fresh-free lists by their
    # kernels; past that it keeps tuples of ints, fetches no kernel and
    # steps every list by rel_apply, one call per memo miss.  Either way the
    # witness's rank tuples are tuples of ints
    from tsocbmc import engine
    fetched, kernel_forms, apply_forms = [], set(), []
    real_kernel, real_apply = engine.rank_kernel, engine.rel_apply

    def noted_kernel(effects):
        fetched.append(effects)
        kernel = real_kernel(effects)
        if kernel is None:
            return None

        def wrapper(rids, ranks, ids, rank_id, row):
            kernel_forms.add(type(ranks[0]))
            return kernel(rids, ranks, ids, rank_id, row)
        return wrapper

    def noted_apply(ranks, effects):
        apply_forms.append(type(ranks))
        return real_apply(ranks, effects)

    monkeypatch.setattr(engine, "rank_kernel", noted_kernel)
    monkeypatch.setattr(engine, "rel_apply", noted_apply)
    p, tgt = _ordered_chain(n)
    assert ab_machine(p, 1).nab == n + 1
    v = check_reach(p, tgt, 1)
    assert v.status == REACHABLE and v.stats.states_explored == states
    assert set(apply_forms) == {form}
    if form is bytes:
        assert kernel_forms == {bytes}
    else:
        assert not fetched
        assert len(apply_forms) == v.stats.rel_apply_calls == 66_820
    after = [step.rel_after for step in v.witness.steps]
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in after)
    assert max(map(max, after)) == n
    assert validate_witness(p, concretize_witness(p, v.witness))


def _padded(p, size):
    """p with its first thread padded to size states by unreachable ones,
    declared after the real states so that no state id or transition
    position moves."""
    t = p.threads[0]
    pad = tuple(f"pad{i}" for i in range(size - len(t.states)))
    return replace(p, threads=(replace(t, states=t.states + pad),) + p.threads[1:])


@pytest.mark.parametrize("name, k", [("mp.tso", 2), ("sb.tso", 3)])
def test_control_tuples_past_one_byte_search_alike(name, k):
    # a search interns control tuples as bytes while every state id fits a
    # byte, and as tuples once a thread has a state id of 256; the verdict,
    # the stats and the witness do not depend on the form
    p, tgt = _load(name)
    assert ab_machine(_padded(p, 256), k).control_form is bytes
    padded = _padded(p, 257)
    assert ab_machine(padded, k).control_form is tuple
    v, w = check_reach(p, tgt, k), check_reach(padded, tgt, k)
    assert v.status == w.status == REACHABLE
    assert replace(v.stats, wall_ms=0.0) == replace(w.stats, wall_ms=0.0)
    assert repr(v.witness) == repr(w.witness)
    assert validate_witness(padded, concretize_witness(padded, w.witness))


def test_unused_fresh_register_rebuilds_to_a_tso_run():
    # r is drawn but never read, so its draw has no fresh effect and the
    # witness records no value for it; the rebuilt run draws 0
    p, tgt = parse_program_with_target(
        "domain nat\nvars x y\n"
        "thread a {\n  regs r s\n  init q0\n"
        "  q0 -> q1 : r := *\n  q1 -> q2 : write y s\n"
        "  q2 -> q3 : read x s\n}\n"
        "target a : q3\n")
    v = check_reach(p, tgt, 1)
    assert v.reachable
    run = concretize_witness(p, v.witness)
    assert validate_witness(p, run)
    assert run.steps[0].fresh_value is None
    tso_run = concrete_run_to_tso(p, run)
    tti, tsi = program_index(p).target_idx(tgt)
    assert tso_run.final.st[tti] == tsi
    assert cb_partition_check(tso_run, 1)
