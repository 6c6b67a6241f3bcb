import time
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from tsocbmc import (
    BOUND_EXHAUSTED, Bounds, ConcretizationError, EQ, Guard, ModelTooLargeError,
    NewValue, Program, REACHABLE, Target,
    Thread, Transition, UNREACHABLE, abstract_of, cb_partition_check,
    cb_reach_bounded, check_reach, concrete_run_to_tso, concretize_witness,
    inflate, lt, parse_program_with_target, validate_witness,
)
from tsocbmc.abmachine import ab_machine
from tsocbmc.engine import _seed_order
from tsocbmc.model import program_index, states_in_order

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


def test_offset_guard_needs_inflation():
    # the fresh value's rank only promises b > a; the offset forces room
    t = _thread("t", ["a", "b"], [
        Transition("q0", NewValue("a"), "q1"),
        Transition("q1", NewValue("b"), "q2"),
        Transition("q2", Guard(lt(3), "a", "b"), "q3"),
    ])
    p = Program.make([t], ["x"])
    tgt = Target("t", "q3")
    v = check_reach(p, tgt, 1)
    assert v.reachable
    run = concretize_witness(p, v.witness)
    assert validate_witness(p, run)
    m = ab_machine(p, 1)
    pre = _pre_guard_values(run, m, lambda op: op.rel == lt(3))
    a = pre[m.i_reg(m.idx.rid["a"])]
    b = pre[m.i_reg(m.idx.rid["b"])]
    assert a + 3 < b


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
    m = ab_machine(Program.make([t], ["x"]), 3)
    assert list(_seed_order(m, 0)) == [(0, 0, 0)]


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
        if nt == 1:
            return [(0,) * k]
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


def test_control_successors_computed_once_per_control_state(monkeypatch):
    # many rank tuples share a control state; its successors are computed
    # on first sight and reused for the rest of that search only
    from tsocbmc.abmachine import AbMachine
    from tsocbmc.generators import gen_bakery
    calls = []
    real = AbMachine.transitions_flat

    def spy(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(AbMachine, "transitions_flat", spy)
    g = gen_bakery(1)
    v = check_reach(g.program, g.target, 2)
    assert v.status == UNREACHABLE
    assert v.stats.states_explored == 145
    assert len(calls) == 101
    assert len(set(calls)) == len(calls)
    assert v.stats.control_states == len(calls)
    # a second search on the same machine starts from an empty table
    calls.clear()
    v2 = check_reach(g.program, g.target, 2)
    assert v2.stats.states_explored == 145
    assert len(calls) == 101


def test_state_counts_after_summary_slicing():
    # The machine keeps only summaries some step can read, and the search
    # walks only the schedules that end on the target thread.  bakery(2)
    # k=3 is the benchmark's large exhaustive search: its 142,000 states
    # pair only 2,764 control tuples with 3,522 rank tuples, and rel_apply
    # runs once per distinct (rank tuple, effect list), 18,005 times instead
    # of once per (state, move).
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
        out = m.transitions_flat(m.initial_flat((0,)))
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
    # tuple, through canonical_key/decode_key, and runs once per memo miss
    # either the effect list's rank kernel or, for a list with a fresh
    # value, rel_apply; a witness reads the memo entries the search filled,
    # so its recovery runs neither.  The benchmark's traced run wraps these
    # engine globals and fails when one of them sees no call
    from tsocbmc import engine
    from tsocbmc.generators import gen_bakery
    calls = dict.fromkeys(("rel_apply", "canonical_key", "decode_key"), 0)
    kernel_calls = 0

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

        def wrapper(r):
            nonlocal kernel_calls
            kernel_calls += 1
            return kernel(r)
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
        kernel_calls = 0
        v = check_reach(program, target, k)
        assert v.status == status and v.stats.states_explored == states
        assert (v.witness is not None) == (status == REACHABLE)
        assert all(calls.values()) and kernel_calls, (calls, kernel_calls)
        assert kernel_calls + calls["rel_apply"] == v.stats.rel_apply_calls


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
