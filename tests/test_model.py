import pytest

from tsocbmc import (
    EQ, LE, LT, NEQ, Arw, Assign, Bounds, Guard, InvalidProgramError, Label,
    NewValue, Program, Read, Relation, Stats, Target, Thread, Transition,
    Verdict, Write, asdict, eval_rel, le, lt, replace, validate,
)
from tsocbmc.model import (
    OP_ARW, OP_ASSIGN, OP_FRESH, OP_GUARD, OP_READ, OP_WRITE, operands,
    program_index, states_in_order,
)


@pytest.mark.parametrize("rel,d1,d2,expected", [
    (EQ, 3, 3, True), (EQ, 3, 4, False),
    (NEQ, 3, 4, True), (NEQ, 0, 0, False),
    (LT, 2, 3, True), (LT, 3, 3, False),
    (LE, 3, 3, True), (LE, 4, 3, False),
    (lt(2), 1, 4, True),   # 1 + 2 < 4
    (lt(2), 1, 3, False),  # 1 + 2 < 3 fails
    (le(2), 1, 3, True),   # 1 + 2 <= 3
    (le(5), 0, 4, False),
])
def test_eval_rel(rel, d1, d2, expected):
    assert eval_rel(rel, d1, d2) is expected


def test_relation_offsets_only_for_orders():
    with pytest.raises(ValueError):
        Relation(EQ.kind, 1)
    with pytest.raises(ValueError):
        lt(-1)
    assert lt(0) == LT
    assert le(0) == LE
    assert lt(3).render() == "<3"
    assert le(1).render() == "<=1"
    assert EQ.render() == "="
    assert NEQ.render() == "!="


def test_op_renders():
    assert Assign("a", "b").render() == "a := b"
    assert NewValue("a").render() == "a := *"
    assert Guard(lt(1), "a", "b").render() == "assume a <1 b"
    assert Read("x", "a").render() == "read x a"
    assert Write("x", "a").render() == "write x a"
    assert Arw("x", "a", "b").render() == "arw x a b"


def _thread(tid, regs, trs, init="q0", states=None):
    if states is None:
        states = states_in_order(init, trs)
    return Thread(tid, tuple(states), tuple(regs), init, tuple(trs))


def test_states_in_order_names_each_state_once_by_first_mention():
    trs = [Transition("b", NewValue("a"), "c"), Transition("c", NewValue("a"), "a"),
           Transition("a", NewValue("a"), "b")]
    assert states_in_order("a", trs) == ("a", "b", "c")
    assert states_in_order("z", trs, extra=("c", "y")) == ("z", "b", "c", "a", "y")
    assert states_in_order("z", []) == ("z",)


def test_offset_guards_validate():
    t = _thread("t", ["a", "b"], [Transition("q0", Guard(lt(4), "a", "b"), "q1"),
                                  Transition("q0", Guard(le(2), "a", "b"), "q1")])
    p = Program.make([t], ["x"])
    assert validate(p) == []


def test_validate_rejects_foreign_register():
    t1 = _thread("t1", ["a"], [Transition("q0", Write("x", "a"), "q1")])
    t2 = _thread("t2", ["b"], [Transition("q0", Read("x", "a"), "q1")])
    p = Program.make([t1, t2], ["x"])
    diags = validate(p)
    assert any("not owned" in d for d in diags)


@pytest.mark.parametrize("op,problems", [
    (Assign("a", "z"), ["register 'z' not owned by the thread"]),
    (Assign("z", "w"), ["register 'z' not owned by the thread",
                        "register 'w' not owned by the thread"]),
    (NewValue("z"), ["register 'z' not owned by the thread"]),
    (Guard(lt(1), "z", "a"), ["register 'z' not owned by the thread"]),
    (Read("y", "z"), ["register 'z' not owned by the thread",
                      "undeclared shared variable 'y'"]),
    (Write("x", "z"), ["register 'z' not owned by the thread"]),
    (Arw("y", "z", "w"), ["register 'z' not owned by the thread",
                          "register 'w' not owned by the thread",
                          "undeclared shared variable 'y'"]),
    (Arw("x", "a", "z"), ["register 'z' not owned by the thread"]),
])
def test_validate_names_each_bad_operand_in_order(op, problems):
    t = _thread("t", ["a"], [Transition("q0", op, "q1")])
    assert validate(Program.make([t], ["x"])) == [
        f"thread 't': operation '{op.render()}' uses {p}" for p in problems]


def test_validate_rejects_shared_register_name():
    t1 = _thread("t1", ["a"], [])
    t2 = _thread("t2", ["a"], [])
    diags = validate(Program.make([t1, t2], ["x"]))
    assert any("disjoint" in d for d in diags)


def test_validate_names_a_repeated_register_once():
    # a register a thread declares twice is that thread's duplicate, not a
    # register it shares with itself
    t = _thread("t", ["r", "r", "a"], [])
    assert validate(Program.make([t], ["x"])) == ["thread 't': duplicate register 'r'"]
    u = _thread("u", ["a", "a"], [])
    assert validate(Program.make([t, u], ["x"])) == [
        "thread 't': duplicate register 'r'", "thread 'u': duplicate register 'a'",
        "register 'a' shared by threads 't' and 'u': register sets must be disjoint"]


def test_validate_rejects_undeclared_variable_and_state():
    t = _thread("t", ["a"], [Transition("q0", Write("y", "a"), "q1")])
    diags = validate(Program.make([t], ["x"]))
    assert any("undeclared shared variable 'y'" in d for d in diags)

    bad = Thread("t", ("q0",), ("a",), "q0",
                 (Transition("q0", Assign("a", "a"), "q9"),))
    diags = validate(Program.make([bad], []))
    assert any("undeclared state" in d for d in diags)


def test_validate_rejects_bad_init_and_duplicates():
    bad = Thread("t", ("q0", "q0"), ("a", "a"), "q7", ())
    diags = validate(Program.make([bad], ["x", "x"]))
    assert any("duplicate state" in d for d in diags)
    assert any("duplicate register" in d for d in diags)
    assert any("init state 'q7' undeclared" in d for d in diags)
    assert any("duplicate shared variable" in d for d in diags)
    assert "duplicate thread id 't'" in validate(Program.make([bad, bad], ["x"]))


def test_program_index_interning_and_target():
    t1 = _thread("t1", ["a"], [Transition("q0", Write("x", "a"), "q1")])
    t2 = _thread("t2", ["b"], [Transition("p0", Read("x", "b"), "p1")], init="p0")
    p = Program.make([t1, t2], ["x", "y"])
    idx = program_index(p)
    assert idx.thread_ids == ("t1", "t2")
    assert idx.regs == ("a", "b")
    assert idx.vid == {"x": 0, "y": 1}
    assert idx.target_idx(Target("t2", "p1")) == (1, 1)
    with pytest.raises(KeyError):
        idx.target_idx(Target("t3", "p1"))
    with pytest.raises(KeyError):
        idx.target_idx(Target("t1", "p1"))


def test_program_index_operand_records():
    # the variable first, then the registers with the assigned one first,
    # then a guard's relation; ids in the index, names from operands
    ops = [Assign("a", "b"), NewValue("b"), Guard(lt(2), "b", "a"),
           Read("y", "a"), Write("x", "b"), Arw("y", "b", "a")]
    t = _thread("t", ["a", "b"], [Transition("q0", op, "q0") for op in ops])
    idx = program_index(Program.make([t], ["x", "y"]))
    assert idx.ops == [(
        (OP_ASSIGN, 0, 1, None), (OP_FRESH, 1, None, None),
        (OP_GUARD, 1, 0, lt(2)), (OP_READ, 1, 0, None),
        (OP_WRITE, 0, 1, None), (OP_ARW, 1, 1, 0))]
    assert [operands(op) for op in ops] == [
        (OP_ASSIGN, "a", "b", None), (OP_FRESH, "b", None, None),
        (OP_GUARD, "b", "a", lt(2)), (OP_READ, "y", "a", None),
        (OP_WRITE, "x", "b", None), (OP_ARW, "y", "b", "a")]
    assert [idx.resolve(op) for op in ops] == list(idx.ops[0])


def test_program_index_refuses_invalid():
    bad = Thread("t", ("q0",), ("a",), "missing", ())
    with pytest.raises(InvalidProgramError):
        program_index(Program.make([bad], []))


def test_equal_programs_share_hash_and_index():
    import pickle

    def build():
        t = Thread("a", ("q0", "q1"), ("r", "s"), "q0",
                   (Transition("q0", Guard(lt(2), "r", "s"), "q1"),
                    Transition("q1", Write("x", "r"), "q0")))
        return Program.make([t], ["x"])

    p1, p2 = build(), build()
    assert p1 is not p2
    assert hash(p1) == hash(p2) == hash(p1)
    assert p1 == p2
    assert program_index(p1) is program_index(p2)
    # the cached hash is per process, so it must not travel with a pickle
    p3 = pickle.loads(pickle.dumps(p1))
    assert "_hash" not in vars(p3)
    assert p3 == p1 and hash(p3) == hash(p1)


def _raises(error, act):
    """The name of the error act raises, checked to be `error`."""
    with pytest.raises(error):
        act()
    return error.__name__


STATS_REPR = ("Stats(states_explored=0, control_states=0, peak_frontier=0, "
              "rank_tuples=0, move_keys=0, rel_apply_calls=0, wall_ms=0.0, "
              "stop_reason='')")


@pytest.mark.parametrize("what, act, expected", [
    ("classes differ", lambda: Read("x", "r") == Write("x", "r"), False),
    ("values equal", lambda: Read("x", "r") == Read(var="x", dst="r"), True),
    ("equal values hash alike",
     lambda: hash(Guard(EQ, "a", "b")) == hash(Guard(EQ, "a", "b")), True),
    ("hash is the field tuple's",
     lambda: hash(Label("t", None, 2)) == hash(("t", None, 2)), True),
    ("one field hashes as a 1-tuple",
     lambda: hash(NewValue("r")) == hash(("r",)), True),
    ("frozen field", lambda: _raises(AttributeError,
                                     lambda: setattr(Read("x", "r"), "var", "y")),
     "AttributeError"),
    ("bad bounds", lambda: _raises(ValueError, lambda: Bounds(-1, 0, 0)),
     "ValueError"),
    ("bad bounds by replace",
     lambda: _raises(ValueError, lambda: replace(Bounds(0, 0, 0), buffer_bound=-1)),
     "ValueError"),
    ("replace changes one field",
     lambda: replace(Label("t", None), value=3), Label("t", None, 3)),
    ("unknown field", lambda: _raises(TypeError, lambda: Label("t", None, bad=1)),
     "TypeError"),
    ("missing field", lambda: _raises(TypeError, lambda: Label("t")), "TypeError"),
    ("guard repr", lambda: repr(Guard(EQ, "a", "b")),
     "Guard(rel=Relation(kind=<RelKind.EQ: '='>, n=0), left='a', right='b')"),
    ("label repr", lambda: repr(Label("t", None)),
     "Label(thread='t', delta=None, value=None)"),
    ("stats repr", lambda: repr(Stats()), STATS_REPR),
    ("stats unhashable", lambda: _raises(TypeError, lambda: hash(Stats())),
     "TypeError"),
    ("stats assignable", lambda: setattr(Stats(), "move_keys", 1), None),
    ("fresh default per instance",
     lambda: Verdict(False, "x").stats is Verdict(False, "x").stats, False),
    ("fields in order", lambda: list(asdict(Target("t", "q"))), ["thread", "state"]),
])
def test_record_semantics(what, act, expected):
    assert act() == expected, what
