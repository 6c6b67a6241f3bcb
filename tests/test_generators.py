from dataclasses import replace
from itertools import product

import pytest

from tsocbmc import (
    Assign, Bounds, Dfa, DlcsModel, EQ, LT, NEQ, Target, check_reach,
    concretize_witness, dfa_intersection_oracle, dlcs_reach_bounded,
    gen_bakery, gen_dlcs_reduction, gen_intersection,
    parse_program_with_target, tso_reach_bounded, validate, validate_witness,
)
from tsocbmc.dsl import DlcsFresh, DlcsRecv, DlcsSend
from tsocbmc.model import Guard


def _rels(program):
    return {tr.op.rel for t in program.threads for tr in t.transitions
            if isinstance(tr.op, Guard)}


def test_bakery_structure():
    g = gen_bakery(2)
    assert validate(g.program) == []
    assert g.target == Target("mon", "viol")
    assert g.k_hint == 4
    assert set(g.program.shared_vars) == {
        "ticket_1", "ticket_2", "chosen_1", "chosen_2",
        "in_crit_1", "in_crit_2",
    }
    # guards stay in the offset-free fragment
    assert _rels(g.program) <= {EQ, NEQ, LT}
    with pytest.raises(ValueError):
        gen_bakery(0)


def test_bakery_text_round_trip():
    g = gen_bakery(2)
    p2, tgt2 = parse_program_with_target(g.to_text())
    assert p2 == g.program and tgt2 == g.target


def test_bakery_single_thread_is_safe():
    g = gen_bakery(1)
    assert g.k_hint == 1
    # no pair of threads exists, so the monitor can never fire
    assert not check_reach(g.program, g.target, 2).reachable


# --- DFA intersection --------------------------------------------------------

ENDS_A = Dfa(("p0", "p1"), ("a", "b"), "p0", ("p1",), (
    ("p0", "a", "p1"), ("p0", "b", "p0"),
    ("p1", "a", "p1"), ("p1", "b", "p0"),
))
EVEN = Dfa(("e0", "e1"), ("a", "b"), "e0", ("e0",), (
    ("e0", "a", "e1"), ("e0", "b", "e1"),
    ("e1", "a", "e0"), ("e1", "b", "e0"),
))
ENDS_B = Dfa(("r0", "r1"), ("a", "b"), "r0", ("r1",), (
    ("r0", "b", "r1"), ("r0", "a", "r0"),
    ("r1", "b", "r1"), ("r1", "a", "r0"),
))


def _accepts(d: Dfa, word) -> bool:
    step = {(s, a): t for s, a, t in d.transitions}
    q = d.init
    for a in word:
        q = step.get((q, a))
        if q is None:
            return False
    return q in d.finals


def _brute_intersection(dfas, max_len=6):
    alphabet = dfas[0].alphabet
    for n in range(max_len + 1):
        for word in product(alphabet, repeat=n):
            if all(_accepts(d, word) for d in dfas):
                return True
    return False


@pytest.mark.parametrize("dfas,expected", [
    ([ENDS_A, EVEN], True),     # "ba" works
    ([ENDS_A, ENDS_B], False),  # last letter cannot be both
    ([ENDS_A, EVEN, ENDS_B], False),
    ([EVEN, ENDS_B], True),
])
def test_intersection_oracle_matches_brute_force(dfas, expected):
    assert _brute_intersection(dfas) is expected
    assert dfa_intersection_oracle(dfas) is expected


@pytest.mark.parametrize("dfas,expected", [
    ([ENDS_A, EVEN], True),
    ([ENDS_A, ENDS_B], False),
])
def test_intersection_program_agrees(dfas, expected):
    g = gen_intersection(dfas)
    assert validate(g.program) == []
    assert g.k_hint == 1
    v = check_reach(g.program, g.target, g.k_hint)
    assert v.reachable is expected
    if expected:
        run = concretize_witness(g.program, v.witness)
        assert validate_witness(g.program, run)


def test_intersection_empty_word():
    d = Dfa(("q",), ("a",), "q", ("q",), (("q", "a", "q"),))
    assert dfa_intersection_oracle([d]) is True
    g = gen_intersection([d])
    assert check_reach(g.program, g.target, 1).reachable


def test_intersection_input_checks():
    with pytest.raises(ValueError):
        gen_intersection([])
    other = Dfa(("q",), ("z",), "q", ("q",), ())
    with pytest.raises(ValueError):
        gen_intersection([ENDS_A, other])
    bad = Dfa(("q",), ("a",), "nowhere", ("q",), ())
    with pytest.raises(ValueError):
        dfa_intersection_oracle([bad])
    duplicate = Dfa(("q", "q"), ("a",), "q", ("q",), ())
    with pytest.raises(ValueError, match="duplicate state 'q'"):
        gen_intersection([duplicate])


# --- lossy data channel ------------------------------------------------------

SEND_RECV = DlcsModel(
    states=("q0", "q1", "q2", "qF"),
    vars=("v", "w"),
    alphabet=("a",),
    init="q0",
    target="qF",
    transitions=(
        ("q0", DlcsFresh("v"), "q1"),
        ("q1", DlcsSend("a", "v"), "q2"),
        ("q2", DlcsRecv("a", "w"), "qF"),
    ),
)

NEEDS_LOSS = DlcsModel(
    states=("q0", "q1", "q2", "q3", "q4", "q5", "qF"),
    vars=("v", "w", "r"),
    alphabet=("a",),
    init="q0",
    target="qF",
    transitions=(
        ("q0", DlcsFresh("v"), "q1"),
        ("q1", DlcsSend("a", "v"), "q2"),
        ("q2", DlcsFresh("w"), "q3"),
        ("q3", DlcsSend("a", "w"), "q4"),
        # the channel is a queue: without loss the receive yields v, so
        # reaching qF forces the first message to be dropped
        ("q4", DlcsRecv("a", "r"), "q5"),
        ("q5", Guard(EQ, "r", "w"), "qF"),
    ),
)


def test_dlcs_oracle_basic():
    v = dlcs_reach_bounded(SEND_RECV, "qF", channel_len=2, fresh_values=2)
    assert v.reachable
    assert v.witness[0].startswith("v :=")
    # a receive cannot precede the send
    first_recv = DlcsModel(("q0", "qF"), ("v",), ("a",), "q0",
                           (("q0", DlcsRecv("a", "v"), "qF"),), "qF")
    assert not dlcs_reach_bounded(first_recv, "qF", 2, 2).reachable


def test_dlcs_reduction_agrees_with_oracle():
    g = gen_dlcs_reduction(SEND_RECV)
    assert validate(g.program) == []
    assert g.k_hint == 2 + 2 * 2
    assert dlcs_reach_bounded(SEND_RECV, "qF", 3, 3).reachable
    assert tso_reach_bounded(g.program, g.target, Bounds(3, 3, 200)).reachable


def test_dlcs_reduction_unreachable_case():
    wrong_letter = DlcsModel(
        states=("q0", "q1", "q2", "qF"),
        vars=("v",),
        alphabet=("a", "b"),
        init="q0",
        target="qF",
        transitions=(
            ("q0", DlcsFresh("v"), "q1"),
            ("q1", DlcsSend("a", "v"), "q2"),
            ("q2", DlcsRecv("b", "v"), "qF"),
        ),
    )
    assert not dlcs_reach_bounded(wrong_letter, "qF", 2, 2).reachable
    g = gen_dlcs_reduction(wrong_letter)
    assert not tso_reach_bounded(g.program, g.target, Bounds(3, 2, 120)).reachable


def test_dlcs_loss_is_expressible():
    v = dlcs_reach_bounded(NEEDS_LOSS, "qF", channel_len=2, fresh_values=2)
    assert v.reachable
    assert any(l == "loss" for l in v.witness)
    g = gen_dlcs_reduction(NEEDS_LOSS)
    assert tso_reach_bounded(g.program, g.target, Bounds(2, 3, 200),
                             max_states=2_000_000).reachable


COPY_THEN = DlcsModel(("q0", "q1", "q2", "qF"), ("v", "w"), ("a",), "q0",
                      (("q0", DlcsFresh("v"), "q1"), ("q1", Assign("w", "v"), "q2")),
                      "qF")


@pytest.mark.parametrize("m,expect,witness", [
    # w := v after a fresh v, so w = v and never w != v
    (replace(COPY_THEN, transitions=COPY_THEN.transitions
             + (("q2", Guard(EQ, "w", "v"), "qF"),)), True,
     ("v := 1", "w := v", "assume w = v")),
    (replace(COPY_THEN, transitions=COPY_THEN.transitions
             + (("q2", Guard(NEQ, "w", "v"), "qF"),)), False, None),
    # the initial state is the target
    (DlcsModel(("q0",), ("v",), ("a",), "q0", (), "q0"), True, ()),
], ids=["copy-then-equal", "copy-then-differ", "init-is-target"])
def test_dlcs_oracle_and_reduction_agree(m, expect, witness):
    v = dlcs_reach_bounded(m, m.target, channel_len=3, fresh_values=3)
    assert (v.reachable, v.witness) == (expect, witness)
    g = gen_dlcs_reduction(m)
    assert check_reach(g.program, g.target, g.k_hint).reachable == expect


def test_dlcs_reduction_input_checks():
    no_target = DlcsModel(("q0",), ("v",), ("a",), "q0", (), None)
    with pytest.raises(ValueError):
        gen_dlcs_reduction(no_target)
    reserved = DlcsModel(("_q0",), ("v",), ("a",), "_q0", (), "_q0")
    with pytest.raises(ValueError):
        gen_dlcs_reduction(reserved)
    # r_dollar and r_tmp are the reduction's own registers
    for name in ("dollar", "tmp"):
        clash = DlcsModel(("q0",), (name,), ("a",), "q0", (), "q0")
        with pytest.raises(ValueError, match="'dollar' and 'tmp' are reserved"):
            gen_dlcs_reduction(clash)
    duplicate = DlcsModel(("q0",), ("v", "v"), ("a",), "q0", (), "q0")
    with pytest.raises(ValueError, match="duplicate variable 'v'"):
        gen_dlcs_reduction(duplicate)


def test_dlcs_reduction_text_round_trip():
    g = gen_dlcs_reduction(SEND_RECV)
    p2, tgt2 = parse_program_with_target(g.to_text())
    assert p2 == g.program and tgt2 == g.target
