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
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .model import (
    EQ, LE, LT, NEQ, OP_ASSIGN, OP_GUARD, Arw, Assign, Guard, NewValue, Op,
    Program, Read, Relation, RelKind, Target, Thread, Transition, Write,
    operands, states_in_order,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.message = message
        self.span = span


@dataclass(frozen=True)
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
        # the name tokens of each declaration, by keyword
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


def _parse_thread(p: _Parser) -> Thread:
    p.expect("thread")
    tid = p.expect_ident("a thread name").text
    p.expect("{")
    regs = p.names("regs")
    declared_states = p.names("states") if p.at("states") else None
    p.expect("init")
    init = p.expect_ident("the initial state").text
    transitions: list[Transition] = []
    while not p.at("}"):
        if p.peek().kind == "eof":
            raise p.fail("unterminated thread block")
        src = p.expect_ident("a state").text
        p.expect("->")
        dst = p.expect_ident("a state").text
        p.expect(":")
        op = _parse_op(p)
        transitions.append(Transition(src, op, dst))
    p.expect("}")
    if declared_states is not None:
        states = tuple(declared_states)
    else:
        states = states_in_order(init, transitions)
    return Thread(tid, states, tuple(regs), init, tuple(transitions))


def parse_program_with_target(text: str) -> tuple[Program, Optional[Target]]:
    """Parse a program file; returns the program and its inline target, if any."""
    p = _Parser(text)
    p.expect("domain")
    dom = p.expect_ident("a domain name")
    if dom.text != "nat":
        raise p.fail(f"unsupported domain '{dom.text}'", dom)
    shared: list[str] = []
    while p.at("vars"):
        shared.extend(p.names("vars"))
    threads: list[Thread] = []
    while p.at("thread"):
        threads.append(_parse_thread(p))
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
    return Program.make(threads, shared), target


def parse_program(text: str) -> Program:
    return parse_program_with_target(text)[0]


def render_program(program: Program, target: Optional[Target] = None) -> str:
    lines = ["domain nat"]
    if program.shared_vars:
        lines.append("vars " + " ".join(program.shared_vars))
    for t in program.threads:
        lines.append("")
        lines.append(f"thread {t.id} {{")
        lines.append("  regs" + ("" if not t.regs else " " + " ".join(t.regs)))
        lines.append("  states " + " ".join(t.states))
        lines.append(f"  init {t.init}")
        for tr in t.transitions:
            lines.append(f"  {tr.src} -> {tr.dst} : {tr.op.render()}")
        lines.append("}")
    if target is not None:
        lines.append("")
        lines.append(f"target {target.thread} : {target.state}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
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
    starts: list[_Token] = []
    while p.peek().kind == "ident":
        starts.append(p.peek())
        src = p.next().text
        letter = p.expect_ident("a letter").text
        p.expect("->")
        dst = p.expect_ident("a state").text
        transitions.append((src, letter, dst))
    p.end()
    dfa = Dfa(tuple(states), tuple(alphabet), init, tuple(finals), tuple(transitions))
    _check(p, validate_dfa, dfa, starts)
    return dfa


# The declaration keyword of each kind of name that validate_dfa and
# validate_dlcs report on the declarations, in "duplicate <kind> '<name>'"
# or "<kind> '<name>' undeclared"
_DECLARED_BY = {"state": "states", "letter": "alphabet", "variable": "vars",
                "final state": "finals", "init state": "init",
                "target state": "target"}
_DECLARATION_DIAG = re.compile(r"(duplicate )?(.+?) '(.*)'")


def _check(p: _Parser, validate: Callable, model: Union[Dfa, DlcsModel],
           starts: list[_Token]) -> None:
    """Raise validate's first diagnostic on a parsed DFA or channel model:
    one on the declarations at the name it reports (a duplicate at its
    second mention), and any other at the first token of the first
    transition that gives it alone."""
    diags = validate(model)
    if diags:
        if diags[0] in validate(replace(model, transitions=())):
            dup, kind, name = _DECLARATION_DIAG.match(diags[0]).groups()
            toks = [t for t in p.declared[_DECLARED_BY[kind]] if t.text == name]
            tok = toks[1 if dup else 0]
        else:
            tok = next(t for t, tr in zip(starts, model.transitions)
                       if diags[0] in validate(replace(model, transitions=(tr,))))
        raise p.fail(diags[0], tok)


def _duplicates(what: str, names: tuple[str, ...]) -> list[str]:
    return [f"duplicate {what} '{n}'" for n, c in Counter(names).items() if c > 1]


def validate_dfa(dfa: Dfa) -> list[str]:
    diags = (_duplicates("state", dfa.states) + _duplicates("letter", dfa.alphabet)
             + _duplicates("final state", dfa.finals))
    states = set(dfa.states)
    letters = set(dfa.alphabet)
    if dfa.init not in states:
        diags.append(f"init state '{dfa.init}' undeclared")
    for f in dfa.finals:
        if f not in states:
            diags.append(f"final state '{f}' undeclared")
    for (a, letter, b) in dfa.transitions:
        if a not in states or b not in states:
            diags.append(f"transition {a} {letter} -> {b} uses undeclared state")
        if letter not in letters:
            diags.append(f"transition {a} {letter} -> {b} uses undeclared letter")
    return diags


def render_dfa(dfa: Dfa) -> str:
    lines = ["dfa"]
    lines.append("alphabet " + " ".join(dfa.alphabet))
    lines.append("states " + " ".join(dfa.states))
    lines.append(f"init {dfa.init}")
    lines.append("finals" + ("" if not dfa.finals else " " + " ".join(dfa.finals)))
    for (a, letter, b) in dfa.transitions:
        lines.append(f"{a} {letter} -> {b}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DlcsFresh:
    dst: str

    def render(self) -> str:
        return f"{self.dst} := *"


@dataclass(frozen=True)
class DlcsSend:
    letter: str
    var: str

    def render(self) -> str:
        return f"send {self.letter} {self.var}"


@dataclass(frozen=True)
class DlcsRecv:
    letter: str
    var: str

    def render(self) -> str:
        return f"recv {self.letter} {self.var}"


DlcsOp = Union[Assign, Guard, DlcsFresh, DlcsSend, DlcsRecv]


@dataclass(frozen=True)
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
    starts: list[_Token] = []
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
    _check(p, validate_dlcs, m, starts)
    return m


def validate_dlcs(m: DlcsModel) -> list[str]:
    diags = (_duplicates("state", m.states) + _duplicates("variable", m.vars)
             + _duplicates("letter", m.alphabet))
    states = set(m.states)
    dvars = set(m.vars)
    letters = set(m.alphabet)
    if m.init not in states:
        diags.append(f"init state '{m.init}' undeclared")
    if m.target is not None and m.target not in states:
        diags.append(f"target state '{m.target}' undeclared")
    for (a, op, b) in m.transitions:
        if a not in states or b not in states:
            diags.append(f"transition {a} -> {b} uses undeclared state")
        if isinstance(op, (DlcsSend, DlcsRecv)):
            if op.letter not in letters:
                diags.append(f"op '{op.render()}' uses undeclared letter")
            used = (op.var,)
        elif isinstance(op, DlcsFresh):
            used = (op.dst,)
        else:
            kind, x, y, rel = operands(op)
            if kind != OP_ASSIGN and (kind != OP_GUARD or rel not in (EQ, NEQ)):
                diags.append(f"op '{op.render()}' is not a channel model operation")
                continue
            used = (x, y)
        for v in used:
            if v not in dvars:
                diags.append(f"op '{op.render()}' uses undeclared variable")
    return diags


def render_dlcs(m: DlcsModel) -> str:
    lines = ["dlcs"]
    lines.append("states " + " ".join(m.states))
    lines.append("vars" + ("" if not m.vars else " " + " ".join(m.vars)))
    lines.append("alphabet" + ("" if not m.alphabet else " " + " ".join(m.alphabet)))
    lines.append(f"init {m.init}")
    if m.target is not None:
        lines.append(f"target {m.target}")
    for (a, op, b) in m.transitions:
        lines.append(f"{a} -> {b} : {op.render()}")
    return "\n".join(lines) + "\n"
