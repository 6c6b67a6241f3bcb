import json
import random
from pathlib import Path

import pytest

from tsocbmc import (
    EQ, Arw, Assign, Bounds, Guard, Label, ModelTooLargeError, NEQ, NewValue,
    NotEnabledError, Program, Read, Target, Thread, Transition, TsoConfig,
    Write, cb_partition_check, cb_reach_bounded, eval_rel, initial_config, lt,
    gen_bakery, normalize_updates, parse_program_with_target, replay,
    tso_enabled, tso_reach_bounded, tso_step,
)
from tsocbmc import tso
from tsocbmc.cli import main
from tsocbmc.model import program_index, states_in_order
from tsocbmc.selftest import random_cb_run, random_program

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _prog(*threads, shared=("x",)):
    return Program.make(list(threads), list(shared))


def _thread(tid, regs, trs, init="q0"):
    return Thread(tid, states_in_order(init, trs), tuple(regs), init, tuple(trs))


WRITER = _thread("t", ["a"], [
    Transition("q0", NewValue("a"), "q1"),
    Transition("q1", Write("x", "a"), "q2"),
])


def test_initial_config_is_all_zero():
    c = initial_config(_prog(WRITER))
    assert c.rval == (0,) and c.mem == (0,) and c.buf == ((),)


def test_write_buffers_and_update_commits():
    p = _prog(WRITER)
    c = initial_config(p)
    c = tso_step(p, c, Label("t", WRITER.transitions[0], 7))
    c = tso_step(p, c, Label("t", WRITER.transitions[1]))
    assert c.buf == (((0, 7),),) and c.mem == (0,)
    c = tso_step(p, c, Label("t", None))
    assert c.buf == ((),) and c.mem == (7,)


def test_read_prefers_newest_buffered_entry():
    t = _thread("t", ["a", "b", "r"], [
        Transition("q0", NewValue("a"), "q1"),
        Transition("q1", NewValue("b"), "q2"),
        Transition("q2", Write("x", "a"), "q3"),
        Transition("q3", Write("x", "b"), "q4"),
        Transition("q4", Read("x", "r"), "q5"),
    ])
    p = _prog(t)
    c = initial_config(p)
    for tr, v in zip(t.transitions, (3, 5, None, None, None)):
        before, c = c, tso_step(p, c, Label("t", tr, v))
    # the search's enumerator reads the newest entry too; the random walks
    # below seldom buffer two entries on one variable before a read
    read, update = Label("t", t.transitions[4]), Label("t", None)
    assert _enumerated(p, before, Bounds(2, 0, 0)) == [(read, c), (update, _step_ref(
        p, before, update))]
    idx_r = 2
    assert c.rval[idx_r] == 5          # newest entry wins
    assert c.buf[0] == ((0, 3), (0, 5))  # FIFO order preserved


def test_update_pops_oldest_first():
    t = _thread("t", ["a", "b"], [
        Transition("q0", NewValue("a"), "q1"),
        Transition("q1", NewValue("b"), "q2"),
        Transition("q2", Write("x", "a"), "q3"),
        Transition("q3", Write("x", "b"), "q4"),
    ])
    p = _prog(t)
    c = initial_config(p)
    for tr, v in zip(t.transitions, (3, 5, None, None)):
        c = tso_step(p, c, Label("t", tr, v))
    c = tso_step(p, c, Label("t", None))
    assert c.mem == (3,) and c.buf[0] == ((0, 5),)
    c = tso_step(p, c, Label("t", None))
    assert c.mem == (5,) and c.buf[0] == ()


def test_arw_requires_empty_buffer_and_expected_value():
    t = _thread("t", ["e", "u"], [
        Transition("q0", NewValue("u"), "q1"),
        Transition("q1", Write("x", "u"), "q2"),
        Transition("q2", Arw("x", "e", "u"), "q3"),
    ])
    p = _prog(t)
    c = initial_config(p)
    c = tso_step(p, c, Label("t", t.transitions[0], 4))
    c = tso_step(p, c, Label("t", t.transitions[1]))
    with pytest.raises(NotEnabledError):
        tso_step(p, c, Label("t", t.transitions[2]))  # buffer not empty
    c = tso_step(p, c, Label("t", None))
    with pytest.raises(NotEnabledError):
        tso_step(p, c, Label("t", t.transitions[2]))  # mem is 4, e expects 0
    # reset memory through a second arw-free path is overkill; build afresh
    t2 = _thread("t", ["e", "u"], [
        Transition("q0", NewValue("u"), "q1"),
        Transition("q1", Arw("x", "e", "u"), "q2"),
    ])
    p2 = _prog(t2)
    c2 = initial_config(p2)
    c2 = tso_step(p2, c2, Label("t", t2.transitions[0], 9))
    c2 = tso_step(p2, c2, Label("t", t2.transitions[1]))
    assert c2.mem == (9,)


def test_step_rejections():
    p = _prog(WRITER)
    c = initial_config(p)
    with pytest.raises(NotEnabledError):
        tso_step(p, c, Label("t", None))  # empty buffer
    with pytest.raises(NotEnabledError):
        tso_step(p, c, Label("t", WRITER.transitions[1]))  # wrong state
    with pytest.raises(NotEnabledError):
        tso_step(p, c, Label("t", WRITER.transitions[0]))  # fresh needs value
    g = _thread("t", ["a"], [Transition("q0", Guard(NEQ, "a", "a"), "q1")])
    pg = _prog(g)
    with pytest.raises(NotEnabledError):
        tso_step(pg, initial_config(pg), Label("t", g.transitions[0]))


def test_enabled_respects_bounds():
    p = _prog(WRITER)
    c = initial_config(p)
    labels = tso_enabled(p, c, Bounds(1, 2, 10))
    # q0 offers one fresh-value transition per domain element
    assert [l.value for l in labels] == [0, 1, 2]
    c = tso_step(p, c, Label("t", WRITER.transitions[0], 1))
    c = tso_step(p, c, Label("t", WRITER.transitions[1]))
    # buffer at capacity 1: only the update remains
    again = _thread("t", ["a"], [Transition("q0", NewValue("a"), "q1"),
                                 Transition("q1", Write("x", "a"), "q1")])
    p2 = _prog(again)
    c2 = initial_config(p2)
    c2 = tso_step(p2, c2, Label("t", again.transitions[0], 1))
    c2 = tso_step(p2, c2, Label("t", again.transitions[1]))
    labels2 = tso_enabled(p2, c2, Bounds(1, 2, 10))
    assert len(labels2) == 1 and labels2[0].is_update


def test_label_render():
    tr = WRITER.transitions[0]
    assert Label("t", tr, 2).render() == "t: q0 -> q1 : a := * = 2"
    assert Label("t", None).render() == "t: update"


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(-1, 2, 10)
    with pytest.raises(ValueError):
        Bounds(1, 300, 10)
    p, tgt = _load("mp.tso")
    with pytest.raises(ValueError, match="k must be at least 1"):
        cb_reach_bounded(p, tgt, 0, Bounds(1, 1, 10))


@pytest.mark.parametrize("threads,k,ok", [
    (["a", "a", "b"], 2, True),
    (["a", "b", "a"], 2, False),
    (["a", "b", "a"], 3, True),
    ([], 1, True),
    (["a"], 1, True),
])
def test_cb_partition_check(threads, k, ok):
    labels = tuple(Label(t, None) for t in threads)

    class FakeRun:
        pass

    r = FakeRun()
    r.labels = labels
    assert cb_partition_check(r, k) is ok


def _load(name):
    return parse_program_with_target((CORPUS / name).read_text())


def test_mp_flip_at_two_contexts():
    p, tgt = _load("mp.tso")
    b = Bounds(2, 2, 60)
    assert tso_reach_bounded(p, tgt, b).reachable
    assert not cb_reach_bounded(p, tgt, 1, b).reachable
    v2 = cb_reach_bounded(p, tgt, 2, b)
    assert v2.reachable
    assert cb_partition_check(v2.witness, 2)
    # witness replays cleanly from scratch
    rerun = replay(p, list(v2.witness.labels))
    assert rerun.final == v2.witness.final


def test_sb_flip_at_three_contexts():
    p, tgt = _load("sb.tso")
    b = Bounds(2, 2, 60)
    assert not cb_reach_bounded(p, tgt, 2, b).reachable
    assert cb_reach_bounded(p, tgt, 3, b).reachable


def test_witness_is_shortest():
    p, tgt = _load("mp.tso")
    v = tso_reach_bounded(p, tgt, Bounds(2, 1, 60))
    n = len(v.witness.labels)
    # nothing shorter reaches the target: depth-limited search one below
    v_short = tso_reach_bounded(p, tgt, Bounds(2, 1, n - 1))
    assert not v_short.reachable


def test_normalize_updates_preserves_final_and_sorts_updates():
    p, tgt = _load("mp.tso")
    v = cb_reach_bounded(p, tgt, 2, Bounds(2, 1, 60))
    run = v.witness
    norm = normalize_updates(p, run, 2)
    assert norm.final == run.final
    assert cb_partition_check(norm, 2)
    # within every maximal thread block all updates come last
    blocks = []
    cur = None
    for label in norm.labels:
        if label.thread != cur:
            blocks.append([])
            cur = label.thread
        blocks[-1].append(label)
    for block in blocks:
        kinds = [l.is_update for l in block]
        assert kinds == sorted(kinds)


def test_normalize_updates_rejections():
    p, tgt = _load("mp.tso")
    run = cb_reach_bounded(p, tgt, 2, Bounds(2, 1, 60)).witness
    with pytest.raises(ValueError):
        normalize_updates(p, run, 1)
    t = _thread("t", ["e", "u"], [Transition("q0", Arw("x", "e", "u"), "q1")])
    pa = _prog(t)
    ra = replay(pa, [Label("t", t.transitions[0])])
    with pytest.raises(ValueError):
        normalize_updates(pa, ra, 1)


# --- the semantics against a name-resolving reference -----------------------

def _latest_ref(buf, x):
    for var, val in reversed(buf):
        if var == x:
            return val
    return None


def _enabled_ref(program, c, b):
    idx = program_index(program)
    out = []
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
            else:
                if not c.buf[ti] and c.mem[idx.vid[op.var]] == c.rval[idx.rid[op.expect]]:
                    out.append(Label(tname, tr))
        if c.buf[ti]:
            out.append(Label(tname, None))
    return out


def _regs_ref(op):
    """The registers an operation names, the assigned one first."""
    if isinstance(op, Assign):
        return [op.dst, op.src]
    if isinstance(op, Guard):
        return [op.left, op.right]
    if isinstance(op, (NewValue, Read)):
        return [op.dst]
    if isinstance(op, Write):
        return [op.src]
    return [op.expect, op.update]


def _step_ref(program, c, label):
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
    for r in _regs_ref(op):
        if r not in program.threads[ti].regs:
            raise NotEnabledError(f"{label.render()}: register {r} is not thread {label.thread}'s")
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
        v = _latest_ref(c.buf[ti], x)
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
    x = idx.vid[op.var]
    if c.buf[ti]:
        raise NotEnabledError(f"{label.render()}: store buffer must be empty")
    if c.mem[x] != c.rval[idx.rid[op.expect]]:
        raise NotEnabledError(f"{label.render()}: memory value differs from expected")
    mem = list(c.mem)
    mem[x] = c.rval[idx.rid[op.update]]
    return TsoConfig(tuple(st), c.rval, c.buf, tuple(mem))


def _outcome(step, program, c, label):
    try:
        return step(program, c, label)
    except (NotEnabledError, KeyError) as e:
        return type(e), str(e)


def _probe_labels(program, rng):
    """Labels for every transition: as declared, with an equal but distinct
    Transition, and under every thread (owner or not), plus each update."""
    threads = [t.id for t in program.threads]
    out = [Label(t, None) for t in threads]
    for th in program.threads:
        for tr in th.transitions:
            value = rng.choice((None, 0, 1, 2)) if isinstance(tr.op, NewValue) else None
            twin = Transition(tr.src, tr.op, tr.dst)
            for tid in threads:
                out.append(Label(tid, tr, value))
                out.append(Label(tid, twin, value))
    return out


def _enumerated(program, c, b):
    """Every thread's moves by tso._thread_moves, as (label, successor
    configuration)."""
    idx = program_index(program)
    out = []
    for ti, (tname, sl) in enumerate(zip(idx.thread_ids, idx.reg_slices)):
        part = c.st[ti], c.rval[sl], c.buf[ti]
        for tr, v, (s, regs, buf), mem in tso._thread_moves(idx, ti, part, c.mem, b):
            out.append((Label(tname, tr, v),
                        TsoConfig(tso._put(c.st, ti, s),
                                  c.rval[:sl.start] + regs + c.rval[sl.stop:],
                                  tso._put(c.buf, ti, buf), mem)))
    return out


def test_semantics_match_reference_on_random_walks():
    rng = random.Random(23)
    steps = probes = 0
    for _ in range(300):
        p = random_program(rng, n_threads=rng.randint(1, 3))
        bounds = Bounds(rng.randint(0, 2), rng.randint(0, 2), 0)
        c = initial_config(p)
        for _ in range(rng.randint(5, 25)):
            got = tso_enabled(p, c, bounds)
            assert got == _enabled_ref(p, c, bounds)
            # the enumerator's successors are the reference step's
            assert _enumerated(p, c, bounds) == [(l, _step_ref(p, c, l)) for l in got]
            for label in got:
                assert tso_step(p, c, label) == _step_ref(p, c, label)
                steps += 1
            for label in _probe_labels(p, rng):
                assert _outcome(tso_step, p, c, label) == _outcome(_step_ref, p, c, label)
                probes += 1
            if not got:
                break
            c = tso_step(p, c, rng.choice(got))
    assert steps > 5_000 and probes > 50_000


def test_step_resolves_labels_by_value():
    # a label built from an equal Transition or naming a thread that does not
    # own it steps, or fails, exactly like the name-based semantics
    a = _thread("a", ["ra"], [Transition("q0", NewValue("ra"), "q1"),
                              Transition("q1", Write("x", "ra"), "q2")])
    b = _thread("b", ["rb"], [Transition("q0", Read("x", "rb"), "q1")],)
    p = _prog(a, b)
    c = initial_config(p)
    twin = Transition("q0", NewValue("ra"), "q1")
    assert twin is not a.transitions[0]
    assert tso_step(p, c, Label("a", twin, 4)) == _step_ref(p, c, Label("a", twin, 4))
    # b is at q0 too, so a's first transition matches b's state, but its
    # register is a's: not enabled for b, as in the name-based semantics
    foreign = Label("b", a.transitions[0], 3)
    with pytest.raises(NotEnabledError, match="register ra is not thread b's"):
        tso_step(p, c, foreign)
    assert _outcome(tso_step, p, c, foreign) == _outcome(_step_ref, p, c, foreign)
    # b has no state q2: the reference fails on the name, so does tso_step
    c2 = tso_step(p, c, Label("b", b.transitions[0]))
    for label in (Label("b", a.transitions[1]), Label("b", b.transitions[0])):
        assert _outcome(tso_step, p, c2, label) == _outcome(_step_ref, p, c2, label)
    with pytest.raises(KeyError):
        tso_step(p, c2, Label("b", Transition("q1", Write("x", "rb"), "q9")))
    with pytest.raises(KeyError):
        tso_step(p, c, Label("nobody", None))


# the oracle's answers on the corpus, Bounds(2, 2, 60)
MP_WITNESS = [
    "w: w0 -> w1 : w_one := * = 1",
    "w: w1 -> w2 : assume w_one != w_zero",
    "w: w2 -> w3 : write data w_one",
    "w: w3 -> w4 : write flag w_one",
    "w: update",
    "w: update",
    "r: r0 -> r1 : read flag r_flag",
    "r: r1 -> r2 : assume r_flag != r_zero",
    "r: r2 -> r3 : read data r_data",
    "r: r3 -> done : assume r_data != r_zero",
]
SB_WITNESS = [
    "t1: a0 -> a1 : a_one := * = 1",
    "t1: a1 -> a2 : assume a_one != a_zero",
    "t1: a2 -> a3 : write x a_one",
    "t1: a3 -> a4 : read y a_ry",
    "t1: a4 -> a5 : assume a_ry = a_zero",
    "t2: b0 -> b1 : b_one := * = 1",
    "t2: b1 -> b2 : assume b_one != b_zero",
    "t2: b2 -> b3 : write y b_one",
    "t2: b3 -> b4 : read x b_rx",
    "t2: b4 -> b5 : assume b_rx = b_zero",
    "t2: b5 -> b6 : write ok b_one",
    "t2: update",
    "t2: update",
    "t1: a5 -> a6 : read ok a_rc",
    "t1: a6 -> both : assume a_rc != a_zero",
]


@pytest.mark.parametrize("name,k,states,witness", [
    ("mp.tso", 2, 50, MP_WITNESS),
    ("sb.tso", 3, 1746, SB_WITNESS),
    ("mp.tso", None, 37, MP_WITNESS),
    ("sb.tso", None, 594, SB_WITNESS),
])
def test_oracle_outputs_are_pinned(name, k, states, witness):
    p, tgt = _load(name)
    b = Bounds(2, 2, 60)
    v = tso_reach_bounded(p, tgt, b) if k is None else cb_reach_bounded(p, tgt, k, b)
    assert v.reachable and v.stats.states_explored == states
    assert [l.render() for l in v.witness.labels] == witness
    ti, si = program_index(p).target_idx(tgt)
    assert v.witness.final.st[ti] == si


def test_bakery_oracle_search_is_pinned():
    # the benchmark's oracle search: its counts, so that a search exploring
    # less cannot pass for a faster one
    g = gen_bakery(2)
    v = cb_reach_bounded(g.program, g.target, 4, Bounds(2, 2, 60), max_states=4_000_000)
    assert v.status == "reachable"
    assert (v.stats.states_explored, v.stats.control_states,
            v.stats.peak_frontier) == (194_616, 5_497, 13_608)
    assert len(v.witness.labels) == 38 and cb_partition_check(v.witness, 4)
    ti, si = program_index(g.program).target_idx(g.target)
    assert v.witness.final.st[ti] == si


def test_witness_takes_the_first_move_to_each_state():
    # both moves out of q0 reach the same configuration: the search records
    # the first, in tso_enabled order, and so must the witness
    for first, second in ((Guard(EQ, "a", "a"), Assign("a", "a")),
                          (Assign("a", "a"), Guard(EQ, "a", "a"))):
        t = _thread("t", ["a"], [Transition("q0", first, "q1"),
                                 Transition("q0", second, "q1"),
                                 Transition("q1", Read("x", "a"), "q2")])
        for search in (lambda p, g: tso_reach_bounded(p, g, Bounds(1, 1, 5)),
                       lambda p, g: cb_reach_bounded(p, g, 1, Bounds(1, 1, 5))):
            v = search(_prog(t), Target("t", "q2"))
            assert [l.delta.op for l in v.witness.labels] == [first, Read("x", "a")]


def test_oracle_stop_reason():
    p, tgt = _load("sb.tso")
    v = cb_reach_bounded(p, tgt, 3, Bounds(2, 2, 60), max_states=100)
    assert v.status == "bound_exhausted" and v.stats.stop_reason == "max_states"
    assert cb_reach_bounded(p, tgt, 3, Bounds(2, 2, 60)).stats.stop_reason == ""


def test_oracle_depth_stop_reason(capsys):
    p, tgt = _load("sb.tso")
    shallow = cb_reach_bounded(p, tgt, 3, Bounds(2, 2, 5))
    assert shallow.status == "unreachable_within_bounds"
    assert shallow.stats.stop_reason == "depth"
    # the search runs dry before its depth: no stop reason
    full = cb_reach_bounded(p, tgt, 2, Bounds(2, 2, 60))
    assert full.status == "unreachable_within_bounds" and full.stats.stop_reason == ""
    assert tso_reach_bounded(p, tgt, Bounds(2, 2, 0)).stats.stop_reason == "depth"
    assert main(["simulate", str(CORPUS / "sb.tso"), "--cb", "3", "--depth", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_move_table_fills_enumerate_each_part_once(monkeypatch, tmp_path, capsys):
    p, tgt = _load("sb.tso")
    run = cb_reach_bounded(p, tgt, 3, Bounds(2, 2, 60)).witness
    fills, enabled_calls, inside = [], [], []
    moves, enabled = tso._thread_moves, tso.tso_enabled

    def counted_moves(idx, ti, part, mem, b):
        if not inside:
            fills.append(ti)
        return moves(idx, ti, part, mem, b)

    def counted_enabled(program, c, b):
        inside.append(c)
        try:
            return enabled(program, c, b)
        finally:
            enabled_calls.append(inside.pop())

    monkeypatch.setattr(tso, "_thread_moves", counted_moves)
    monkeypatch.setattr(tso, "tso_enabled", counted_enabled)
    rpt = tmp_path / "sb.json"
    assert main(["simulate", str(CORPUS / "sb.tso"), "--cb", "3", "--out", str(rpt)]) == 1
    capsys.readouterr()
    report = json.loads(rpt.read_text())
    stats = report["stats"]
    # the fills enumerate one thread's moves per (thread, local part,
    # memory) triple, far below the 3,795 states explored
    assert stats["states_explored"] == 3795
    assert len(fills) == stats["control_states"] == 395
    assert set(fills) == {0, 1}
    # tso_enabled runs only in the witness recovery, once per label, on the
    # configurations the witness passes through
    assert len(enabled_calls) == len(report["witness"]) == len(SB_WITNESS)
    assert enabled_calls == [run.initial] + [c for _, c in run.steps[:-1]]


def test_witness_recovery_rejects_a_wrong_successor(monkeypatch):
    # an enumerator whose update commits the newest buffered entry, not the
    # oldest: mp's writer buffers data then flag, so the search now finds a
    # run that commits flag first, which no reference step takes
    moves = tso._thread_moves

    def newest_first(idx, ti, part, mem, b):
        s, regs, buf = part
        for tr, v, part2, mem2 in moves(idx, ti, part, mem, b):
            if tr is None:
                x, val = buf[-1]
                part2, mem2 = (s, regs, buf[:-1]), tso._put(mem, x, val)
            yield tr, v, part2, mem2

    p, tgt = _load("mp.tso")
    b = Bounds(2, 2, 60)
    assert cb_reach_bounded(p, tgt, 2, b).reachable
    monkeypatch.setattr(tso, "_thread_moves", newest_first)
    for search in (lambda: cb_reach_bounded(p, tgt, 2, b),
                   lambda: tso_reach_bounded(p, tgt, b)):
        with pytest.raises(AssertionError, match="no enabled step leads from"):
            search()


def test_every_step_changes_only_its_thread_and_the_memory():
    # what makes the oracle's move tables sound: a step by one thread leaves
    # every other thread's control state, registers and buffer as they were
    rng = random.Random(41)
    steps = 0
    for n in (2, 3):
        for _ in range(150):
            p = random_program(rng, n_threads=n)
            idx = program_index(p)
            bounds = Bounds(rng.randint(0, 2), rng.randint(0, 2), 0)
            run = random_cb_run(p, rng.randint(1, 4), bounds, rng)
            c = run.initial
            for label, c2 in run.steps:
                assert (len(c2.st), len(c2.rval), len(c2.buf), len(c2.mem)) == \
                    (len(c.st), len(c.rval), len(c.buf), len(c.mem))
                for tj, t in enumerate(p.threads):
                    if t.id != label.thread:
                        regs = [idx.rid[r] for r in t.regs]
                        assert c2.st[tj] == c.st[tj] and c2.buf[tj] == c.buf[tj]
                        assert [c2.rval[r] for r in regs] == [c.rval[r] for r in regs]
                c = c2
                steps += 1
    assert steps > 2_000


def test_a_thread_cannot_step_on_another_threads_register():
    a = _thread("a", ["ra"], [Transition("p0", Assign("ra", "ra"), "p1")], init="p0")
    b = _thread("b", ["rb"], [Transition("q0", NewValue("rb"), "q1")])
    p = _prog(a, b)
    c = tso_step(p, initial_config(p), Label("b", b.transitions[0], 5))
    assert c.rval == (0, 5)
    # a is at p0, but rb is b's: a's step must not copy ra into it
    with pytest.raises(NotEnabledError, match="register rb is not thread a's"):
        tso_step(p, c, Label("a", Transition("p0", Assign("rb", "ra"), "p1")))


def test_steps_of_a_thread_whose_registers_do_not_start_at_zero():
    # thread b owns register ids 2..4; each kind must read and write them
    # there, and leave a's registers at 0..1 alone
    a = _thread("a", ["a0", "a1"], [Transition("q0", NewValue("a0"), "q1"),
                                    Transition("q1", Write("y", "a0"), "q2")])
    b = _thread("b", ["u", "v", "w"], [
        Transition("q0", NewValue("u"), "q1"),
        Transition("q1", Assign("v", "u"), "q2"),
        Transition("q2", Read("y", "w"), "q3"),
        Transition("q3", Write("x", "w"), "q4"),
        Transition("q4", Read("x", "u"), "q5"),
        Transition("q5", Guard(NEQ, "u", "v"), "q6"),
        Transition("q5", Guard(EQ, "u", "v"), "q7"),
        Transition("q6", Arw("x", "u", "v"), "q8"),
        Transition("q6", Arw("x", "v", "u"), "q7"),
    ])
    p = _prog(a, b, shared=("x", "y"))
    assert program_index(p).reg_slices == [slice(0, 2), slice(2, 5)]
    tb = b.transitions
    c = initial_config(p)
    for label, want in [
        (Label("a", a.transitions[0], 4), TsoConfig((1, 0), (4, 0, 0, 0, 0), ((), ()), (0, 0))),
        (Label("a", a.transitions[1]), TsoConfig((2, 0), (4, 0, 0, 0, 0), (((1, 4),), ()), (0, 0))),
        (Label("a", None), TsoConfig((2, 0), (4, 0, 0, 0, 0), ((), ()), (0, 4))),
        # 7 lies above any domain_bound a search would use: witness replay
        # steps values the search never drew
        (Label("b", tb[0], 7), TsoConfig((2, 1), (4, 0, 7, 0, 0), ((), ()), (0, 4))),
        (Label("b", tb[1]), TsoConfig((2, 2), (4, 0, 7, 7, 0), ((), ()), (0, 4))),
        # y from memory, then x from b's own buffer over memory's 0
        (Label("b", tb[2]), TsoConfig((2, 3), (4, 0, 7, 7, 4), ((), ()), (0, 4))),
        (Label("b", tb[3]), TsoConfig((2, 4), (4, 0, 7, 7, 4), ((), ((0, 4),)), (0, 4))),
        (Label("b", tb[4]), TsoConfig((2, 5), (4, 0, 4, 7, 4), ((), ((0, 4),)), (0, 4))),
        (Label("b", tb[6]), "guard is false"),
        (Label("b", tb[5]), TsoConfig((2, 6), (4, 0, 4, 7, 4), ((), ((0, 4),)), (0, 4))),
        (Label("b", tb[7]), "store buffer must be empty"),
        (Label("b", None), TsoConfig((2, 6), (4, 0, 4, 7, 4), ((), ()), (4, 4))),
        (Label("b", tb[8]), "memory value differs from expected"),
        (Label("b", tb[7]), TsoConfig((2, 8), (4, 0, 4, 7, 4), ((), ()), (7, 4))),
    ]:
        # the search's enumerator offers the same step, or none
        moves = _enumerated(p, c, Bounds(1, 7, 0))
        if isinstance(want, str):
            with pytest.raises(NotEnabledError, match=want):
                tso_step(p, c, label)
            assert label not in [l for l, _ in moves]
        else:
            c = tso_step(p, c, label)
            assert c == want, label.render()
            assert (label, c) in moves


def test_simulate_memory_cap(monkeypatch, capsys, tmp_path):
    rpt = tmp_path / "capped.json"
    monkeypatch.setenv("TSOCBMC_MAX_MB", "100")
    monkeypatch.setattr(tso, "_rss_mb", lambda: 1e6)
    # 7,140 states uncapped: the memory is sampled at the 4,096th
    assert main(["simulate", str(CORPUS / "sb.tso"), "--cb", "5",
                 "--out", str(rpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "bound_exhausted: target t1:both (4096 states explored)\n"
    assert captured.err == "stopped by max_mb\n"
    assert json.loads(rpt.read_text())["stats"]["stop_reason"] == "max_mb"
    monkeypatch.setenv("TSOCBMC_MAX_MB", "nan")
    assert main(["simulate", str(CORPUS / "sb.tso"), "--tso"]) == 2
    assert "TSOCBMC_MAX_MB" in capsys.readouterr().err


def _many_threads(n):
    return [_thread(f"t{i}", [f"r{i}"], [Transition("q0", Write("x", f"r{i}"), "q1")])
            for i in range(n)]


@pytest.mark.parametrize("program,search,limit", [
    (_prog(WRITER), lambda p, t: tso_reach_bounded(p, t, Bounds(256, 0, 5)),
     "buffer bound 256, above the limit of 255"),
])
def test_oracle_encoding_limits_are_named(program, search, limit):
    target = Target(program.threads[0].id, "q1")
    with pytest.raises(ModelTooLargeError, match=limit):
        search(program, target)


def _guard_chain(n):
    return _thread("t", ["a"], [Transition(f"q{i}", Guard(EQ, "a", "a"), f"q{i + 1}")
                                for i in range(n - 1)])


@pytest.mark.parametrize("program,search,target,explored", [
    (_prog(*_many_threads(256)),
     lambda p, t: tso_reach_bounded(p, t, Bounds(1, 0, 5)), Target("t0", "q1"), 1),
    (_prog(WRITER, shared=["x"] + [f"y{i}" for i in range(256)]),
     lambda p, t: tso_reach_bounded(p, t, Bounds(1, 0, 5)), Target("t", "q1"), 1),
    (_prog(WRITER), lambda p, t: cb_reach_bounded(p, t, 256, Bounds(1, 0, 5)),
     Target("t", "q1"), 1),
    (_prog(_guard_chain(256)),
     lambda p, t: tso_reach_bounded(p, t, Bounds(1, 0, 300)), Target("t", "q255"), 255),
], ids=["256-threads", "257-variables", "256-contexts", "256-states"])
def test_oracle_answers_models_past_one_byte(program, search, target, explored):
    # the interned encoding sizes its fields from the model, so thread count,
    # states per thread, variables and contexts have no byte limit
    v = search(program, target)
    assert v.status == "reachable" and v.stats.states_explored == explored
