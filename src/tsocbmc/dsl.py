"""Text formats for programs, DFAs and lossy channel models.

Program format::

    domain nat
    vars x y                    # shared variables

    thread t1 {
      regs r0 r1
      states q0 q1              # optional; derived from transitions if absent
      init q0
      q0 -> q1 : write x r0
      q1 -> q1 : assume r0 <2 r1
    }

    target t1 : q1              # optional

Operations: `r := r'`, `r := *`, `assume r REL r'` with REL one of
= != < <= <N <=N, `read x r`, `write x r`, `arw x r r'`.

DFA format::

    dfa
    alphabet a b
    states q0 q1
    init q0
    finals q1
    q0 a -> q1

Lossy-channel format::

    dlcs
    states q0 q1
    vars x
    alphabet a
    init q0
    target q1                   # optional
    q0 -> q1 : send a x

with ops `x := y`, `x := *`, `assume x = y`, `assume x != y`,
`send a x`, `recv a x`.  Copies and guards are the program model's `Assign`
and `Guard` (`=` and `!=` only).  `x := *` keeps its own class, `DlcsFresh`:
it draws a value distinct from every variable, where a program's `r := *`
(`NewValue`) draws any natural.

Lexical rules, shared by all three formats: a name is a letter or `_`
followed by letters, digits and `_`, or a run of digits (so `12ab` is two
names); `#` starts a comment that runs to the end of the line; relation
offsets (`<N`, `<=N`) take ASCII digits only.  Any keyword may also be used
as a name.

Rendering is canonical: parse(render(m)) == m for all three formats.

Diagnostics are placed one way in all three formats: `model.diagnose`,
`diagnose_dfa` and `diagnose_dlcs` pair each with its place, a path of keys
such as ("finals", 1), and the parser keeps each place's token for
`_locate`.  A program lists every diagnostic; a DFA or channel model raises
its first as a ParseError.
"""
from __future__ import annotations

import re
from typing import Optional, Union

from ._record import record
from .model import (
    EQ, LE, LT, NEQ, OP_ASSIGN, OP_GUARD, Arw, Assign, Guard, NewValue, Op,
    Program, Read, Relation, RelKind, Target, Thread, Transition, Write,
    _repeats, diagnose, operands, states_in_order,
)


@record
class SourceSpan:
    line: int
    column: int
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span


@record
class _Token:
    kind: str  # 'ident' | 'sym' | 'rel' | 'eof'
    text: str
    line: int
    col: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.col, max(1, len(self.text)))


_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<ident>\d+|[^\W\d]\w*)       # a number, or a name that starts with no digit
  | (?P<rel><=?[0-9]*|!=|=)         # = != < <= and offset forms <N <=N
  | (?P<sym>->|:=|[{}:*])
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            what = "stray" if tok == "!" else "unexpected character"
            raise ParseError(f"{what} '{tok}'", SourceSpan(line, col, 1))
        elif kind != "skip":
            # str.isdigit() also holds for digits such as '²' that int()
            # rejects; an offset takes ASCII digits only
            after = text[m.end():m.end() + 1]
            if tok[0] == "<" and after.isdigit():
                raise ParseError(f"offset digit '{after}' is not 0-9",
                                 SourceSpan(line, col + len(tok), 1))
            toks.append(_Token(kind, tok, line, col))
    toks.append(_Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        # the name tokens of each declaration, by keyword, and in a DFA or
        # channel model the first token of each transition, by "transitions"
        self.declared: dict[str, list[_Token]] = {}

    def peek(self, ahead: int = 0) -> _Token:
        # lookahead stops at the closing eof token
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str, tok: Optional[_Token] = None) -> "ParseError":
        tok = tok or self.peek()
        return ParseError(message, tok.span)

    def expect_ident(self, what: str) -> _Token:
        t = self.next()
        if t.kind != "ident":
            raise self.fail(f"expected {what}", t)
        return t

    def at(self, text: str) -> bool:
        # keyword and symbol texts never collide, so the text alone decides
        return self.peek().text == text

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise self.fail(f"expected '{text}'", t)
        return t

    def names(self, keyword: str) -> list[str]:
        """The keyword, then the names after it up to the end of its line."""
        line = self.expect(keyword).line
        toks = []
        while self.peek().kind == "ident" and self.peek().line == line:
            toks.append(self.next())
        self.declared[keyword] = toks
        return [t.text for t in toks]

    def name(self, keyword: str, what: str) -> str:
        """The keyword, then one name."""
        self.expect(keyword)
        tok = self.declared[keyword] = [self.expect_ident(what)]
        return tok[0].text

    def end(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail("unexpected trailing input")


def _parse_relation(p: _Parser) -> Relation:
    t = p.next()
    if t.kind != "rel":
        raise p.fail("expected a relation (= != < <= <N <=N)", t)
    s = t.text
    if s == "=":
        return EQ
    if s == "!=":
        return NEQ
    if s.startswith("<="):
        return LE if len(s) == 2 else Relation(RelKind.LE, int(s[2:]))
    return LT if len(s) == 1 else Relation(RelKind.LT, int(s[1:]))


def _parse_guard(p: _Parser, what: str) -> tuple[str, Relation, str]:
    """`assume LEFT REL RIGHT`, with LEFT and RIGHT named as `what`."""
    p.expect("assume")
    left = p.expect_ident(f"a {what}").text
    rel = _parse_relation(p)
    return left, rel, p.expect_ident(f"a {what}").text


def _parse_assign(p: _Parser, what: str) -> tuple[str, Optional[str]]:
    """`DST := SRC` or `DST := *`; the source is None for `*`."""
    dst = p.expect_ident("an operation").text
    p.expect(":=")
    nxt = p.next()
    if nxt.text == "*":
        return dst, None
    if nxt.kind == "ident":
        return dst, nxt.text
    raise p.fail(f"expected a {what} or '*' after ':='", nxt)


def _op_word(p: _Parser) -> str:
    """The keyword that opens an operation, or '' for `DST := ...`: a name
    followed by ':=' is an assignment's destination, whatever it spells."""
    return "" if p.peek(1).text == ":=" else p.peek().text


def _parse_op(p: _Parser) -> Op:
    word = _op_word(p)
    if word == "assume":
        left, rel, right = _parse_guard(p, "register")
        return Guard(rel, left, right)
    if word in ("read", "write"):
        kind = Read if p.next().text == "read" else Write
        var = p.expect_ident("a shared variable").text
        return kind(var, p.expect_ident("a register").text)
    if word == "arw":
        p.next()
        var = p.expect_ident("a shared variable").text
        expect = p.expect_ident("a register").text
        update = p.expect_ident("a register").text
        return Arw(var, expect, update)
    dst, src = _parse_assign(p, "register")
    return NewValue(dst) if src is None else Assign(dst, src)


def _parse_thread(p: _Parser) -> tuple[Thread, dict]:
    """A thread block, and the tokens of its names by the places that
    model.diagnose reports on."""
    p.expect("thread")
    name = p.expect_ident("a thread name")
    p.expect("{")
    regs = p.names("regs")
    places = {"id": name, "regs": p.declared["regs"], "states": [],
              "transitions": [], "operands": []}
    declared_states = None
    if p.at("states"):
        declared_states = p.names("states")
        places["states"] = p.declared["states"]
    p.expect("init")
    init = places["init"] = p.expect_ident("the initial state")
    transitions: list[Transition] = []
    while not p.at("}"):
        if p.peek().kind == "eof":
            raise p.fail("unterminated thread block")
        start = p.expect_ident("a state")
        p.expect("->")
        dst = p.expect_ident("a state").text
        p.expect(":")
        # the operands' names, in `operands` order, follow the keyword
        first = p.pos if _op_word(p) == "" else p.pos + 1
        op = _parse_op(p)
        places["transitions"].append(start)
        places["operands"].append(
            [t for t in p.toks[first:p.pos] if t.kind == "ident"])
        transitions.append(Transition(start.text, op, dst))
    p.expect("}")
    if declared_states is not None:
        states = tuple(declared_states)
    else:
        states = states_in_order(init.text, transitions)
    thread = Thread(name.text, states, tuple(regs), init.text, tuple(transitions))
    return thread, places


def _parse_program(p: _Parser) -> tuple[Program, Optional[Target], dict]:
    """A program file: the program, its inline target, and the tokens of
    its names by the places that model.diagnose reports on."""
    p.expect("domain")
    dom = p.expect_ident("a domain name")
    if dom.text != "nat":
        raise p.fail(f"unsupported domain '{dom.text}'", dom)
    shared: list[str] = []
    places: dict = {"vars": []}
    while p.at("vars"):
        shared.extend(p.names("vars"))
        places["vars"] += p.declared["vars"]
    threads: list[Thread] = []
    while p.at("thread"):
        thread, places[len(threads)] = _parse_thread(p)
        threads.append(thread)
    if not threads:
        raise p.fail("a program needs at least one thread")
    target: Optional[Target] = None
    if p.at("target"):
        p.next()
        tt = p.expect_ident("a thread name").text
        p.expect(":")
        ts = p.expect_ident("a state").text
        target = Target(tt, ts)
    p.end()
    return Program.make(threads, shared), target, places


def parse_program_with_target(text: str) -> tuple[Program, Optional[Target]]:
    """Parse a program file; returns the program and its inline target, if any."""
    return _parse_program(_Parser(text))[:2]


def program_diagnostics(text: str) -> list[str]:
    """validate's diagnostics on the program a file holds, each led by the
    line and column of the name it is about (a repeated name at its second
    mention, an undeclared state at the start of its transition)."""
    program, _, places = _parse_program(_Parser(text))
    located = []
    for where, diag in diagnose(program):
        tok = _locate(places, where)
        located.append(f"line {tok.line}, column {tok.col}: {diag}")
    return located


def _locate(places, where: tuple) -> _Token:
    """The token a diagnostic's place, a path of keys, leads to in places."""
    for key in where:
        places = places[key]
    return places


def parse_program(text: str) -> Program:
    return parse_program_with_target(text)[0]


def _names_line(keyword: str, names: tuple[str, ...]) -> str:
    """A `keyword name ...` declaration line, the bare keyword without names."""
    return " ".join((keyword, *names))


def render_program(program: Program, target: Optional[Target] = None) -> str:
    lines = ["domain nat"]
    if program.shared_vars:
        lines.append(_names_line("vars", program.shared_vars))
    for t in program.threads:
        lines += ["", f"thread {t.id} {{", "  " + _names_line("regs", t.regs),
                  "  " + _names_line("states", t.states), f"  init {t.init}"]
        lines += [f"  {tr.src} -> {tr.dst} : {tr.op.render()}" for tr in t.transitions]
        lines.append("}")
    if target is not None:
        lines += ["", f"target {target.thread} : {target.state}"]
    return "\n".join(lines) + "\n"


@record
class Dfa:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    init: str
    finals: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]  # (state, letter, state)


def parse_dfa(text: str) -> Dfa:
    p = _Parser(text)
    p.expect("dfa")
    alphabet = p.names("alphabet")
    states = p.names("states")
    init = p.name("init", "the initial state")
    finals = p.names("finals")
    transitions: list[tuple[str, str, str]] = []
    starts = p.declared["transitions"] = []
    while p.peek().kind == "ident":
        starts.append(p.peek())
        src = p.next().text
        letter = p.expect_ident("a letter").text
        p.expect("->")
        dst = p.expect_ident("a state").text
        transitions.append((src, letter, dst))
    p.end()
    dfa = Dfa(tuple(states), tuple(alphabet), init, tuple(finals), tuple(transitions))
    _check(p, diagnose_dfa(dfa))
    return dfa


def _check(p: _Parser, diags: list[tuple[tuple, str]]) -> None:
    """Raise the first of a parsed DFA's or channel model's diagnostics at
    the token of its place."""
    if diags:
        where, message = diags[0]
        raise p.fail(message, _locate(p.declared, where))


def diagnose_dfa(dfa: Dfa) -> list[tuple[tuple, str]]:
    """validate_dfa's diagnostics, each with the place it is about:
    (keyword, i) for the i-th name of a declaration, a repeated name at its
    second mention, ("init", 0), or ("transitions", i)."""
    diags = [((kw, i), f"duplicate {what} '{n}'") for kw, what in
             (("states", "state"), ("alphabet", "letter"), ("finals", "final state"))
             for n, i in _repeats(getattr(dfa, kw)).items()]
    states = set(dfa.states)
    letters = set(dfa.alphabet)
    if dfa.init not in states:
        diags.append((("init", 0), f"init state '{dfa.init}' undeclared"))
    diags += [(("finals", i), f"final state '{f}' undeclared")
              for i, f in enumerate(dfa.finals) if f not in states]
    for i, (a, letter, b) in enumerate(dfa.transitions):
        uses = f"transition {a} {letter} -> {b} uses undeclared"
        if a not in states or b not in states:
            diags.append((("transitions", i), f"{uses} state"))
        if letter not in letters:
            diags.append((("transitions", i), f"{uses} letter"))
    return diags


def validate_dfa(dfa: Dfa) -> list[str]:
    return [d for _, d in diagnose_dfa(dfa)]


def render_dfa(dfa: Dfa) -> str:
    lines = ["dfa", _names_line("alphabet", dfa.alphabet),
             _names_line("states", dfa.states), f"init {dfa.init}",
             _names_line("finals", dfa.finals)]
    for (a, letter, b) in dfa.transitions:
        lines.append(f"{a} {letter} -> {b}")
    return "\n".join(lines) + "\n"


@record
class DlcsFresh:
    dst: str

    def render(self) -> str:
        return f"{self.dst} := *"


@record
class DlcsSend:
    letter: str
    var: str

    def render(self) -> str:
        return f"send {self.letter} {self.var}"


@record
class DlcsRecv:
    letter: str
    var: str

    def render(self) -> str:
        return f"recv {self.letter} {self.var}"


DlcsOp = Union[Assign, Guard, DlcsFresh, DlcsSend, DlcsRecv]


@record
class DlcsModel:
    states: tuple[str, ...]
    vars: tuple[str, ...]
    alphabet: tuple[str, ...]
    init: str
    transitions: tuple[tuple[str, DlcsOp, str], ...]
    target: Optional[str] = None


def parse_dlcs(text: str) -> DlcsModel:
    p = _Parser(text)
    p.expect("dlcs")
    states = p.names("states")
    dvars = p.names("vars")
    alphabet = p.names("alphabet")
    init = p.name("init", "the initial state")
    target = None
    if p.at("target") and p.peek(1).text != "->":  # else a transition's source
        target = p.name("target", "a state")
    transitions: list[tuple[str, DlcsOp, str]] = []
    starts = p.declared["transitions"] = []
    while p.peek().kind == "ident":
        starts.append(p.peek())
        src = p.next().text
        p.expect("->")
        dst = p.expect_ident("a state").text
        p.expect(":")
        t = p.peek()
        word = _op_word(p)
        op: DlcsOp
        if word == "assume":
            left, rel, right = _parse_guard(p, "variable")
            if rel not in (EQ, NEQ):
                raise p.fail("channel models only support = and != guards", t)
            op = Guard(rel, left, right)
        elif word in ("send", "recv"):
            kind = DlcsSend if p.next().text == "send" else DlcsRecv
            letter = p.expect_ident("a letter").text
            op = kind(letter, p.expect_ident("a variable").text)
        else:
            dst_var, src_var = _parse_assign(p, "variable")
            op = DlcsFresh(dst_var) if src_var is None else Assign(dst_var, src_var)
        transitions.append((src, op, dst))
    p.end()
    m = DlcsModel(tuple(states), tuple(dvars), tuple(alphabet), init,
                  tuple(transitions), target)
    _check(p, diagnose_dlcs(m))
    return m


def diagnose_dlcs(m: DlcsModel) -> list[tuple[tuple, str]]:
    """validate_dlcs's diagnostics, each with its place as in diagnose_dfa,
    ("target", 0) for the target state."""
    diags = [((kw, i), f"duplicate {what} '{n}'") for kw, what in
             (("states", "state"), ("vars", "variable"), ("alphabet", "letter"))
             for n, i in _repeats(getattr(m, kw)).items()]
    states = set(m.states)
    dvars = set(m.vars)
    letters = set(m.alphabet)
    if m.init not in states:
        diags.append((("init", 0), f"init state '{m.init}' undeclared"))
    if m.target is not None and m.target not in states:
        diags.append((("target", 0), f"target state '{m.target}' undeclared"))
    for i, (a, op, b) in enumerate(m.transitions):
        where = ("transitions", i)
        if a not in states or b not in states:
            diags.append((where, f"transition {a} -> {b} uses undeclared state"))
        if isinstance(op, (DlcsSend, DlcsRecv)):
            if op.letter not in letters:
                diags.append((where, f"op '{op.render()}' uses undeclared letter"))
            used = (op.var,)
        elif isinstance(op, DlcsFresh):
            used = (op.dst,)
        else:
            kind, x, y, rel = operands(op)
            if kind != OP_ASSIGN and (kind != OP_GUARD or rel not in (EQ, NEQ)):
                diags.append((where, f"op '{op.render()}' is not a channel model "
                                     "operation"))
                continue
            used = (x, y)
        diags += [(where, f"op '{op.render()}' uses undeclared variable")
                  for v in used if v not in dvars]
    return diags


def validate_dlcs(m: DlcsModel) -> list[str]:
    return [d for _, d in diagnose_dlcs(m)]


def render_dlcs(m: DlcsModel) -> str:
    lines = ["dlcs", _names_line("states", m.states), _names_line("vars", m.vars),
             _names_line("alphabet", m.alphabet), f"init {m.init}"]
    if m.target is not None:
        lines.append(f"target {m.target}")
    for (a, op, b) in m.transitions:
        lines.append(f"{a} -> {b} : {op.render()}")
    return "\n".join(lines) + "\n"
