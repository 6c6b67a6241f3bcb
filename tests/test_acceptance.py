"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line with its measured numbers (visible with
-v via the test outcome, or with -s); a failure keeps the numbers in the
assertion message.  The randomized suites run at their full advertised scale
here, so this module is the slow one (about a minute overall).
"""
import random
import time
from pathlib import Path

from tsocbmc import (
    Arw, Assign, Bounds, Dfa, Guard, NewValue, Read, Write, DlcsModel, canonical_key, cb_reach_bounded, check_reach,
    concretize_witness, dfa_intersection_oracle, dlcs_reach_bounded,
    gen_bakery, gen_dlcs_reduction, gen_intersection, key_length,
    parse_program_with_target, rel_initial, tso_reach_bounded,
    validate_witness,
)
from tsocbmc.abmachine import ab_machine
from tsocbmc.dsl import DlcsFresh, DlcsRecv, DlcsSend
from tsocbmc.model import EQ, NEQ, program_index
from tsocbmc.selftest import (
    suite_cb_vs_abstract, suite_step_soundness, suite_update_normalization,
    suite_value_inflation, suite_witness_concretization,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _load(name):
    return parse_program_with_target((CORPUS / name).read_text())


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    r = suite_cb_vs_abstract(seed=0, programs=200, ks=(1, 2, 3))
    dt = time.perf_counter() - t0
    assert r.cases >= 200 * 3
    assert r.ok, r.failures[:5]
    assert dt < 300, f"suite took {dt:.0f}s, budget is 5 minutes"
    _ok(1, f"{r.cases} program/k cases ({r.skipped} oracle-skipped), "
           f"100% agreement and concretization, {dt:.0f}s")


def test_criterion_2_step_soundness():
    r = suite_step_soundness(seed=0, steps=1000)
    assert r.cases >= 1000
    assert r.ok, r.failures[:5]
    _ok(2, f"{r.cases} random steps, every abstract successor present")


def test_criterion_3_inflation():
    r = suite_value_inflation(seed=0)
    assert r.cases >= 100
    assert r.ok, r.failures[:5]
    _ok(3, f"{r.cases} runs, inflation kept validity and ranks pointwise")


def _random_dfa(rng, tag, n_states, n_letters):
    states = tuple(f"{tag}{i}" for i in range(n_states))
    alphabet = tuple("abc"[:n_letters])
    trs = []
    for s in states:
        for a in alphabet:
            if rng.random() < 0.85:
                trs.append((s, a, rng.choice(states)))
    finals = tuple(s for s in states if rng.random() < 0.4)
    return Dfa(states, alphabet, states[0], finals, tuple(trs))


def test_criterion_4_dfa_instances():
    # sizes stay in the stated ranges (2-3 automata, <= 4 states each,
    # alphabet <= 3) with the joint state count capped at 6 so every
    # instance fits the 5 s budget: the search space grows with the
    # orderings of the pairwise-distinct state registers
    rng = random.Random(0)
    worst = 0.0
    n_instances = 24
    for i in range(n_instances):
        n = rng.choice((2, 2, 3))
        n_letters = rng.randrange(1, 4)
        sizes = []
        budget = 6
        for j in range(n):
            hi = min(4, budget - (n - 1 - j))
            sizes.append(rng.randrange(1, hi + 1))
            budget -= sizes[-1]
        dfas = [_random_dfa(rng, f"d{j}_", sizes[j], n_letters)
                for j in range(n)]
        t0 = time.perf_counter()
        want = dfa_intersection_oracle(dfas)
        g = gen_intersection(dfas)
        v = check_reach(g.program, g.target, g.k_hint, max_states=3_000_000)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert v.status in ("reachable", "unreachable")
        assert v.reachable == want, (i, sizes, n_letters, want, v.status)
        assert dt < 5.0, (i, sizes, n_letters, dt)
    _ok(4, f"{n_instances} random instances, 100% oracle agreement, "
           f"worst {worst:.2f}s")


DLCS_INSTANCES = (
    ("send-then-recv", True, DlcsModel(
        ("q0", "q1", "q2", "qF"), ("v", "w"), ("a",), "q0",
        (("q0", DlcsFresh("v"), "q1"),
         ("q1", DlcsSend("a", "v"), "q2"),
         ("q2", DlcsRecv("a", "w"), "qF")), "qF")),
    ("recv-first", False, DlcsModel(
        ("q0", "qF"), ("v",), ("a",), "q0",
        (("q0", DlcsRecv("a", "v"), "qF"),), "qF")),
    ("wrong-letter", False, DlcsModel(
        ("q0", "q1", "q2", "qF"), ("v",), ("a", "b"), "q0",
        (("q0", DlcsFresh("v"), "q1"),
         ("q1", DlcsSend("a", "v"), "q2"),
         ("q2", DlcsRecv("b", "v"), "qF")), "qF")),
    ("payload-round-trip", True, DlcsModel(
        ("q0", "q1", "q2", "qF"), ("v", "w"), ("a",), "q0",
        (("q0", DlcsFresh("v"), "q1"),
         ("q1", DlcsSend("a", "v"), "q2"),
         ("q2", DlcsRecv("a", "w"), "q2"),
         ("q2", Guard(EQ, "w", "v"), "qF")), "qF")),
    # w starts at 0, so the mismatch fires before any receive
    ("initial-mismatch", True, DlcsModel(
        ("q0", "q1", "q2", "qF"), ("v", "w"), ("a",), "q0",
        (("q0", DlcsFresh("v"), "q1"),
         ("q1", DlcsSend("a", "v"), "q2"),
         ("q2", DlcsRecv("a", "w"), "q2"),
         ("q2", Guard(NEQ, "w", "v"), "qF")), "qF")),
    # the received zero payload can never differ from the sent one
    ("zero-payload-mismatch", False, DlcsModel(
        ("q0", "q1", "q2", "qF"), ("v", "w"), ("a",), "q0",
        (("q0", DlcsSend("a", "v"), "q1"),
         ("q1", DlcsRecv("a", "w"), "q2"),
         ("q2", Guard(NEQ, "w", "v"), "qF")), "qF")),
)


def test_criterion_5_dlcs_reduction():
    assert len(DLCS_INSTANCES) >= 5
    for name, expect, m in DLCS_INSTANCES:
        vo = dlcs_reach_bounded(m, m.target, channel_len=3, fresh_values=3)
        g = gen_dlcs_reduction(m)
        vt = tso_reach_bounded(g.program, g.target, Bounds(3, 3, 250),
                               max_states=3_000_000)
        assert vo.reachable == expect, (name, vo.status)
        assert vt.reachable == expect, (name, vt.status)
    _ok(5, f"{len(DLCS_INSTANCES)} channel models, oracle and reduction agree")


def test_criterion_6_monotonicity():
    cases = []
    mp, mp_t = _load("mp.tso")
    cases.append(("mp", mp, mp_t, (1, 2, 3)))
    sb, sb_t = _load("sb.tso")
    cases.append(("sb", sb, sb_t, (1, 2, 3, 4)))
    g = gen_bakery(1)
    cases.append(("bakery-1", g.program, g.target, (1, 2)))
    gi = gen_intersection([
        Dfa(("p0", "p1"), ("a", "b"), "p0", ("p1",),
            (("p0", "a", "p1"), ("p0", "b", "p0"),
             ("p1", "a", "p1"), ("p1", "b", "p0"))),
        Dfa(("e0", "e1"), ("a", "b"), "e0", ("e0",),
            (("e0", "a", "e1"), ("e0", "b", "e1"),
             ("e1", "a", "e0"), ("e1", "b", "e0"))),
    ])
    cases.append(("intersection", gi.program, gi.target, (1, 2)))
    checked = 0
    for name, p, tgt, ks in cases:
        flags = []
        for k in ks:
            v = check_reach(p, tgt, k)
            assert v.status in ("reachable", "unreachable"), (name, k)
            flags.append(v.reachable)
        assert flags == sorted(flags), (name, flags)
        checked += len(ks)
    _ok(6, f"{len(cases)} corpus programs, {checked} bound checks, "
           f"reachability never drops when k grows")


def test_criterion_7_litmus_regression():
    mp, mp_t = _load("mp.tso")
    b = Bounds(2, 2, 60)
    # the concrete oracle runs first; the abstraction must match it
    assert not cb_reach_bounded(mp, mp_t, 1, b).reachable
    assert cb_reach_bounded(mp, mp_t, 2, b).reachable
    assert not check_reach(mp, mp_t, 1).reachable
    v2 = check_reach(mp, mp_t, 2)
    assert v2.reachable

    g = gen_bakery(2)
    oracle = cb_reach_bounded(g.program, g.target, 4, Bounds(2, 2, 60),
                              max_states=4_000_000)
    assert oracle.status == "reachable"
    engine = check_reach(g.program, g.target, 4)
    assert engine.reachable == oracle.reachable
    run = concretize_witness(g.program, engine.witness)
    assert validate_witness(g.program, run)
    _ok(7, f"mp flips at k=2 on both engines; bakery(2) k=4 oracle "
           f"{oracle.status} ({oracle.stats.states_explored} states) "
           f"matches the abstraction ({engine.stats.states_explored} states)")


def _rank_columns(p, k):
    """1 + |R| + |regs assigned and used| + |R|*(k-1) + sum_t |R_t & W_t|:
    R_t holds the variables thread t reads (read or arw), R their union,
    and W_t the variables t writes."""
    reads, writes, assigned, used = [], [], set(), set()
    for t in p.threads:
        r_t, w_t = set(), set()
        for tr in t.transitions:
            op = tr.op
            if isinstance(op, (Assign, NewValue, Read)):
                assigned.add(op.dst)
            if isinstance(op, Assign):
                used.add(op.src)
            elif isinstance(op, Guard):
                used |= {op.left, op.right}
            elif isinstance(op, Write):
                used.add(op.src)
                w_t.add(op.var)
            elif isinstance(op, Arw):
                used |= {op.expect, op.update}
            if isinstance(op, (Read, Arw)):
                r_t.add(op.var)
        reads.append(r_t)
        writes.append(w_t)
    r_all = set().union(*reads)
    return (1 + len(r_all) + len(assigned & used) + len(r_all) * (k - 1)
            + sum(len(r_t & w_t) for r_t, w_t in zip(reads, writes)))


def test_criterion_8_key_length_closed_form():
    checked = 0
    for name, k in (("mp.tso", 1), ("mp.tso", 2), ("sb.tso", 3)):
        p, tgt = _load(name)
        m = ab_machine(p, k)
        idx = program_index(p)
        nt, nx = len(idx.thread_ids), len(idx.vars)
        poly = (nt + k + 1 + nx * nt + k * nx) + _rank_columns(p, k)
        assert key_length(p, k) == poly
        for act in m.all_initial_flats():
            key = canonical_key(act, rel_initial(m.nab))
            assert len(key) == poly
            checked += 1
        # the search itself asserts the same bound on every explored state
        check_reach(p, tgt, k)
    _ok(8, f"key length equals the closed form on {checked} initial keys "
           f"and on every state the searches explored")


def test_criterion_9_normalization():
    r = suite_update_normalization(seed=0, runs=100)
    assert r.cases >= 100
    assert r.ok, r.failures[:5]
    _ok(9, f"{r.cases} runs, reordered updates kept the final configuration")


def test_witness_concretization_suite_backstop():
    # not a numbered criterion by itself, but criterion 1's concretization
    # clause is also exercised against runs the engine did not search for
    r = suite_witness_concretization(seed=0)
    assert r.ok, r.failures[:5]
    print(f"PASS backstop: {r.cases} reachable programs concretized")
