import pytest

from dataclasses import replace

from tsocbmc import (
    EQ, LT, NEQ, Arw, Assign, Dfa, DlcsModel, Guard, NewValue, ParseError,
    Program, Read, Target, Thread, Transition, Write, lt, parse_dfa, parse_dlcs,
    parse_program, parse_program_with_target, render_dfa, render_dlcs,
    render_program, validate, validate_dfa,
)
from tsocbmc.dsl import DlcsFresh, DlcsRecv, DlcsSend, _tokenize, validate_dlcs

SAMPLE = """\
# two threads passing a value
domain nat
vars data flag

thread w {
  regs one zero
  init w0
  w0 -> w1 : one := *
  w1 -> w2 : assume one != zero
  w2 -> w3 : write data one
  w3 -> w4 : write flag one
}

thread r {
  regs seen
  init r0
  r0 -> r1 : read flag seen
  r1 -> r2 : assume seen <1 seen
}

target r : r2
"""


def test_parse_program_shape():
    p, tgt = parse_program_with_target(SAMPLE)
    assert tgt == Target("r", "r2")
    assert p.shared_vars == ("data", "flag")
    w, r = p.threads
    assert w.id == "w" and r.id == "r"
    assert w.regs == ("one", "zero")
    assert w.transitions[0].op == NewValue("one")
    assert w.transitions[2].op == Write("data", "one")
    assert r.transitions[1].op == Guard(lt(1), "seen", "seen")
    # states collected in first-use order starting from init
    assert w.states == ("w0", "w1", "w2", "w3", "w4")


def test_render_parse_round_trip():
    p, tgt = parse_program_with_target(SAMPLE)
    text = render_program(p, tgt)
    p2, tgt2 = parse_program_with_target(text)
    assert p2 == p and tgt2 == tgt
    assert render_program(p2, tgt2) == text


def test_parse_all_op_forms():
    text = """domain nat
vars x
thread t {
  regs a b
  states q0 q1
  init q0
  q0 -> q1 : a := b
  q0 -> q1 : a := *
  q0 -> q1 : assume a = b
  q0 -> q1 : assume a != b
  q0 -> q1 : assume a < b
  q0 -> q1 : assume a <= b
  q0 -> q1 : assume a <3 b
  q0 -> q1 : assume a <=2 b
  q0 -> q1 : read x a
  q0 -> q1 : write x a
  q0 -> q1 : arw x a b
}
"""
    p = parse_program(text)
    ops = [tr.op for tr in p.threads[0].transitions]
    assert ops[2] == Guard(EQ, "a", "b")
    assert ops[3] == Guard(NEQ, "a", "b")
    assert ops[6] == Guard(lt(3), "a", "b")
    assert ops[8] == Read("x", "a")
    assert ops[10] == Arw("x", "a", "b")
    # declared states are kept as written
    assert p.threads[0].states == ("q0", "q1")


def test_parse_error_spans():
    with pytest.raises(ParseError) as e:
        parse_program("domain nat\nthread t {\n  regs a\n  init q0\n  q0 -> : read x a\n}\n")
    assert e.value.span.line == 5
    with pytest.raises(ParseError) as e:
        parse_program("domain real\n")
    assert e.value.span.line == 1
    assert "domain" in str(e.value)
    with pytest.raises(ParseError):
        parse_program("domain nat\n")  # no threads
    with pytest.raises(ParseError):
        parse_program(SAMPLE + "\nleftover\n")
    with pytest.raises(ParseError, match="unterminated thread block") as e:
        parse_program("domain nat\nthread t {\n  regs a\n  init q0\n")
    assert e.value.span.line == 5


def test_relation_offset_takes_ascii_digits_only():
    # "²" passes str.isdigit() but not int(); it must not join the offset
    text = "domain nat\nthread t {\n  regs a b\n  init q0\n  q0 -> q1 : assume a <\u00b2 b\n}\n"
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (e.value.span.line, e.value.span.column) == (5, 24)
    assert "offset digit" in e.value.message
    ok = parse_program(text.replace("\u00b2", "12"))
    assert ok.threads[0].transitions[0].op == Guard(lt(12), "a", "b")


def test_comments_and_blank_lines_ignored():
    text = "# lead\ndomain nat # trailing\n\nthread t {\n  regs\n  init q\n}\n"
    p = parse_program(text)
    assert p.threads[0].regs == ()
    assert p.threads[0].states == ("q",)


def test_vars_lines_accumulate():
    text = "domain nat\nvars x\nvars y z\nthread t {\n  regs\n  init q\n}\n"
    assert parse_program(text).shared_vars == ("x", "y", "z")


DFA = """dfa
alphabet a b
states s0 s1
init s0
finals s1
s0 a -> s1
s0 b -> s0
s1 a -> s1
s1 b -> s0
"""


def test_dfa_round_trip():
    d = parse_dfa(DFA)
    assert d.init == "s0" and d.finals == ("s1",)
    assert render_dfa(d) == DFA
    assert validate_dfa(d) == []


def test_dfa_bad_reference():
    with pytest.raises(ParseError):
        parse_dfa("dfa\nalphabet a\nstates s0\ninit s9\nfinals s0\n")


def test_dfa_duplicate_declarations():
    d = Dfa(("p", "p"), ("a", "a"), "p", ("p", "p"), ())
    assert validate_dfa(d) == ["duplicate state 'p'", "duplicate letter 'a'",
                               "duplicate final state 'p'"]
    with pytest.raises(ParseError, match="duplicate letter 'a'"):
        parse_dfa("dfa\nalphabet a a\nstates p\ninit p\nfinals p\n")


def test_dfa_transition_error_points_at_the_transition():
    # validate_dfa decides; the parser points its first diagnostic at the
    # transition that gives it, here the one on line 8
    text = DFA.replace("s1 a -> s1", "s1 c -> s1")
    with pytest.raises(ParseError, match="transition s1 c -> s1 uses undeclared "
                       "letter") as err:
        parse_dfa(text)
    assert (err.value.span.line, err.value.span.column) == (8, 1)


@pytest.mark.parametrize("parse, text, message, at", [
    (parse_dfa, "dfa\nalphabet a\nstates s0\ninit s9\nfinals s0\n",
     "init state 's9' undeclared", (4, 6)),
    (parse_dfa, "dfa\nalphabet a\nstates s0\ninit s0\nfinals s0 s7\n",
     "final state 's7' undeclared", (5, 11)),
    (parse_dlcs, "dlcs\nstates q\nvars v\nalphabet a\ninit q\ntarget qX\n",
     "target state 'qX' undeclared", (6, 8)),
    (parse_dfa, "dfa\nalphabet a\nstates s0 s1 s0\ninit s0\nfinals s0\n",
     "duplicate state 's0'", (3, 14)),
    (parse_dlcs, "dlcs\nstates q\nvars v w v\nalphabet a\ninit q\n",
     "duplicate variable 'v'", (3, 10)),
])
def test_declaration_error_points_at_the_name(parse, text, message, at):
    # a diagnostic on the declarations points at the name it reports, a
    # duplicate at its second mention, not at the start of the text
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    assert (err.value.span.line, err.value.span.column) == at


DLCS = """dlcs
states q0 q1 qF
vars v
alphabet a
init q0
target qF
q0 -> q1 : v := *
q1 -> q1 : send a v
q1 -> qF : recv a v
"""


def test_dlcs_round_trip():
    m = parse_dlcs(DLCS)
    assert m.target == "qF"
    assert m.transitions[1][1] == DlcsSend("a", "v")
    assert m.transitions[2][1] == DlcsRecv("a", "v")
    assert render_dlcs(m) == DLCS
    assert validate_dlcs(m) == []
    m2 = parse_dlcs(render_dlcs(m))
    assert m2 == m


DLCS_COPIES_AND_GUARDS = """dlcs
states q0 q1 q2 qF
vars v w
alphabet a
init q0
q0 -> q1 : w := v
q1 -> q2 : assume v = w
q2 -> qF : assume v != w
"""


def test_dlcs_copies_and_guards_are_program_ops():
    m = parse_dlcs(DLCS_COPIES_AND_GUARDS)
    assert [op for _, op, _ in m.transitions] == [
        Assign("w", "v"), Guard(EQ, "v", "w"), Guard(NEQ, "v", "w")]
    assert render_dlcs(m) == DLCS_COPIES_AND_GUARDS
    assert parse_dlcs(render_dlcs(m)) == m
    assert validate_dlcs(m) == []
    # shared classes must not open the format to other program operations
    for op in (Read("v", "w"), Guard(LT, "v", "w")):
        odd = replace(m, transitions=(("q0", op, "q1"),))
        assert validate_dlcs(odd) == [
            f"op '{op.render()}' is not a channel model operation"]


def test_dlcs_duplicate_declarations():
    m = DlcsModel(("q", "q"), ("v", "v"), ("a", "a"), "q",
                  (("q", DlcsFresh("v"), "q"),))
    assert validate_dlcs(m) == ["duplicate state 'q'", "duplicate variable 'v'",
                                "duplicate letter 'a'"]
    with pytest.raises(ParseError, match="duplicate variable 'v'"):
        parse_dlcs("dlcs\nstates q\nvars v v\nalphabet a\ninit q\n")


def test_dlcs_transition_error_points_at_the_transition():
    # as for a DFA: the diagnostic of line 8's op, not of the text's start
    text = DLCS.replace("q1 -> q1 : send a v", "q1 -> q1 : send b v")
    with pytest.raises(ParseError, match="op 'send b v' uses undeclared "
                       "letter") as err:
        parse_dlcs(text)
    assert (err.value.span.line, err.value.span.column) == (8, 1)


def test_dlcs_undeclared_target():
    m = DlcsModel(("q",), ("v",), ("a",), "q", (), "qX")
    assert validate_dlcs(m) == ["target state 'qX' undeclared"]
    with pytest.raises(ParseError, match="target state 'qX' undeclared"):
        parse_dlcs("dlcs\nstates q\nvars v\nalphabet a\ninit q\ntarget qX\n")


def test_dlcs_rejects_order_guards():
    bad = "dlcs\nstates q0 q1\nvars v\nalphabet a\ninit q0\nq0 -> q1 : assume v < v\n"
    with pytest.raises(ParseError):
        parse_dlcs(bad)


def _scan(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]
    except ParseError as e:
        return (e.message, (e.span.line, e.span.column, e.span.length))


@pytest.mark.parametrize("text, expected", [
    ("a\r\nb\tc", [("ident", "a", 1, 1), ("ident", "b", 2, 1),
                   ("ident", "c", 2, 3), ("eof", "", 2, 4)]),
    ("12ab", [("ident", "12", 1, 1), ("ident", "ab", 1, 3), ("eof", "", 1, 5)]),
    ("é", [("ident", "é", 1, 1), ("eof", "", 1, 2)]),
    ("q0 -> q1", [("ident", "q0", 1, 1), ("sym", "->", 1, 4),
                  ("ident", "q1", 1, 7), ("eof", "", 1, 9)]),
    ("a - b", ("unexpected character '-'", (1, 3, 1))),
    ("a := b : c", [("ident", "a", 1, 1), ("sym", ":=", 1, 3), ("ident", "b", 1, 6),
                    ("sym", ":", 1, 8), ("ident", "c", 1, 10), ("eof", "", 1, 11)]),
    ("<=12", [("rel", "<=12", 1, 1), ("eof", "", 1, 5)]),
    ("=5", [("rel", "=", 1, 1), ("ident", "5", 1, 2), ("eof", "", 1, 3)]),
    ("a ! b", ("stray '!'", (1, 3, 1))),
    ("a <² b", ("offset digit '²' is not 0-9", (1, 4, 1))),
    # the end of input sits after a trailing comment, not at its '#'
    ("x # c", [("ident", "x", 1, 1), ("eof", "", 1, 6)]),
])
def test_scanner_contract(text, expected):
    assert _scan(text) == expected


def test_registers_named_like_operations_round_trip():
    ops = [NewValue("read"), Assign("assume", "read"), Assign("write", "assume"),
           Assign("arw", "write"), Read("x", "read"), Write("x", "assume"),
           Arw("x", "read", "write"), Guard(LT, "read", "assume")]
    states = tuple(f"q{i}" for i in range(len(ops) + 1))
    t = Thread("t", states, ("read", "write", "arw", "assume"), "q0",
               tuple(Transition(states[i], op, states[i + 1])
                     for i, op in enumerate(ops)))
    p = Program.make([t], ["x"])
    assert validate(p) == []
    assert parse_program(render_program(p)) == p


def test_dlcs_variables_named_like_operations_round_trip():
    m = DlcsModel(("q0", "q1", "q2", "q3"), ("send", "assume", "recv"), ("a",), "q0",
                  (("q0", DlcsFresh("send"), "q1"),
                   ("q1", Assign("assume", "send"), "q2"),
                   ("q2", Assign("recv", "assume"), "q3"),
                   ("q3", DlcsSend("a", "send"), "q0"),
                   ("q3", Guard(NEQ, "assume", "recv"), "q0")))
    assert validate_dlcs(m) == []
    assert parse_dlcs(render_dlcs(m)) == m


def test_dlcs_state_named_target_round_trips():
    m = DlcsModel(("target", "q1"), ("v",), ("a",), "target",
                  (("target", DlcsSend("a", "v"), "q1"),))
    assert validate_dlcs(m) == []
    assert parse_dlcs(render_dlcs(m)) == m
    aimed = replace(m, target="target")
    assert parse_dlcs(render_dlcs(aimed)) == aimed
