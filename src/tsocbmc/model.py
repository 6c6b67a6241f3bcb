"""Program model: guard relations, thread-local operations, static validation.

Programs run over the naturals.  Guards compare two registers with one of
`=`, `!=`, `<n` (left + n < right) or `<=n` (left + n <= right); the plain
`<` and `<=` are the n = 0 cases.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Union


class RelKind(enum.Enum):
    EQ = "="
    NEQ = "!="
    LT = "<"
    LE = "<="


@dataclass(frozen=True)
class Relation:
    kind: RelKind
    n: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("relation offset must be a natural number")
        if self.kind in (RelKind.EQ, RelKind.NEQ) and self.n != 0:
            raise ValueError(f"'{self.kind.value}' does not take an offset")

    def render(self) -> str:
        if self.kind in (RelKind.EQ, RelKind.NEQ):
            return self.kind.value
        return self.kind.value + (str(self.n) if self.n else "")


EQ = Relation(RelKind.EQ)
NEQ = Relation(RelKind.NEQ)
LT = Relation(RelKind.LT, 0)
LE = Relation(RelKind.LE, 0)


def lt(n: int) -> Relation:
    return Relation(RelKind.LT, n)


def le(n: int) -> Relation:
    return Relation(RelKind.LE, n)


def eval_rel(rel: Relation, d1: int, d2: int) -> bool:
    """Evaluate a guard relation on two naturals."""
    if rel.kind is RelKind.EQ:
        return d1 == d2
    if rel.kind is RelKind.NEQ:
        return d1 != d2
    if rel.kind is RelKind.LT:
        return d1 + rel.n < d2
    return d1 + rel.n <= d2


@dataclass(frozen=True)
class Assign:
    """dst := src (both registers of the same thread, or both variables of
    a channel model)."""
    dst: str
    src: str

    def render(self) -> str:
        return f"{self.dst} := {self.src}"


@dataclass(frozen=True)
class NewValue:
    """dst := * -- load an arbitrary natural."""
    dst: str

    def render(self) -> str:
        return f"{self.dst} := *"


@dataclass(frozen=True)
class Guard:
    rel: Relation
    left: str
    right: str

    def render(self) -> str:
        return f"assume {self.left} {self.rel.render()} {self.right}"


@dataclass(frozen=True)
class Read:
    """Read shared variable var into register dst."""
    var: str
    dst: str

    def render(self) -> str:
        return f"read {self.var} {self.dst}"


@dataclass(frozen=True)
class Write:
    """Append (var, value of src) to the thread's store buffer."""
    var: str
    src: str

    def render(self) -> str:
        return f"write {self.var} {self.src}"


@dataclass(frozen=True)
class Arw:
    """Atomic read-write: requires an empty buffer and memory value = expect,
    then sets var := update. expect/update are registers."""
    var: str
    expect: str
    update: str

    def render(self) -> str:
        return f"arw {self.var} {self.expect} {self.update}"


Op = Union[Assign, NewValue, Guard, Read, Write, Arw]

# operation kinds
OP_ASSIGN, OP_READ, OP_GUARD, OP_WRITE, OP_FRESH, OP_ARW = range(6)
ON_SHARED = (OP_READ, OP_WRITE, OP_ARW)


def operands(op: Op, reg=lambda name: name, var=lambda name: name) -> tuple:
    """The operand record (kind, x, y, z) of an operation: the shared
    variable first (read, write, arw), then the registers with the assigned
    one first, then a guard's relation; unused slots are None.  reg and var
    map the names; the program index maps them to ids (see resolve).
    This is the only place that tells the operation classes apart."""
    if isinstance(op, Assign):
        return (OP_ASSIGN, reg(op.dst), reg(op.src), None)
    if isinstance(op, NewValue):
        return (OP_FRESH, reg(op.dst), None, None)
    if isinstance(op, Guard):
        return (OP_GUARD, reg(op.left), reg(op.right), op.rel)
    if isinstance(op, Read):
        return (OP_READ, var(op.var), reg(op.dst), None)
    if isinstance(op, Write):
        return (OP_WRITE, var(op.var), reg(op.src), None)
    return (OP_ARW, var(op.var), reg(op.expect), reg(op.update))


@dataclass(frozen=True)
class Transition:
    src: str
    op: Op
    dst: str


@dataclass(frozen=True)
class Thread:
    id: str
    states: tuple[str, ...]
    regs: tuple[str, ...]
    init: str
    transitions: tuple[Transition, ...]


def states_in_order(first: str, transitions, extra=()) -> tuple[str, ...]:
    """Each state once, in order of first mention: `first`, then the source
    and destination of every transition in turn, then `extra`."""
    mentioned = [first] + [s for tr in transitions for s in (tr.src, tr.dst)]
    return tuple(dict.fromkeys(mentioned + list(extra)))


@dataclass(frozen=True)
class Program:
    threads: tuple[Thread, ...]
    shared_vars: tuple[str, ...]

    @staticmethod
    def make(threads, shared_vars) -> "Program":
        """Build a program from any iterables of threads and variables."""
        return Program(tuple(threads), tuple(shared_vars))

    def __hash__(self) -> int:
        # The value hash walks every transition, and the engines look the
        # program up by value (program_index, ab_machine) on every step, so
        # it is computed once.  Equality stays the generated field compare.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.threads, self.shared_vars))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes: never ship the cached one
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Target:
    thread: str
    state: str


def validate(program: Program) -> list[str]:
    """Static checks. Returns a list of diagnostics; empty means valid."""
    diags: list[str] = []
    seen_tids: set[str] = set()
    for t in program.threads:
        if t.id in seen_tids:
            diags.append(f"duplicate thread id '{t.id}'")
        seen_tids.add(t.id)

    if len(set(program.shared_vars)) != len(program.shared_vars):
        diags.append("duplicate shared variable declaration")

    reg_owner: dict[str, str] = {}
    for t in program.threads:
        states = set(t.states)
        if len(states) != len(t.states):
            diags.append(f"thread '{t.id}': duplicate state")
        if len(set(t.regs)) != len(t.regs):
            diags.append(f"thread '{t.id}': duplicate register")
        if t.init not in states:
            diags.append(f"thread '{t.id}': init state '{t.init}' undeclared")
        for r in t.regs:
            if r in reg_owner:
                diags.append(
                    f"register '{r}' shared by threads "
                    f"'{reg_owner[r]}' and '{t.id}': register sets must be disjoint")
            else:
                reg_owner[r] = t.id
        regs = set(t.regs)
        for tr in t.transitions:
            if tr.src not in states or tr.dst not in states:
                diags.append(
                    f"thread '{t.id}': transition {tr.src}->{tr.dst} uses undeclared state")
            kind, x, y, z = operands(tr.op)
            v, op_regs = (x, (y, z)) if kind in ON_SHARED else (None, (x, y))
            for r in op_regs:
                if r is not None and r not in regs:
                    diags.append(
                        f"thread '{t.id}': operation '{tr.op.render()}' uses "
                        f"register '{r}' not owned by the thread")
            if v is not None and v not in program.shared_vars:
                diags.append(
                    f"thread '{t.id}': operation '{tr.op.render()}' uses "
                    f"undeclared shared variable '{v}'")
    return diags


class InvalidProgramError(ValueError):
    def __init__(self, diags: list[str]):
        super().__init__("; ".join(diags))
        self.diagnostics = diags


class ModelTooLargeError(ValueError):
    """The model is valid but k (abstraction) or the buffer bound (oracle)
    is above its limit; the message names the limit."""


class ProgramIndex:
    """Dense integer interning of thread / state / register / variable names.

    Built once per validated program; every engine works on these indices and
    only converts back to names at API boundaries.  ops[ti][pos] is the
    resolved operand record of thread ti's transition pos.  Register ids run
    thread by thread: reg_slices[ti] is the span of ids thread ti owns.
    """

    def __init__(self, program: Program):
        diags = validate(program)
        if diags:
            raise InvalidProgramError(diags)
        self.program = program
        self.thread_ids = tuple(t.id for t in program.threads)
        self.tid = {t.id: i for i, t in enumerate(program.threads)}
        self.vars = program.shared_vars
        self.vid = {x: i for i, x in enumerate(program.shared_vars)}
        self.state_id: list[dict[str, int]] = []
        self.init_states: list[int] = []
        regs: list[str] = []
        self.rid: dict[str, int] = {}
        self.reg_slices: list[slice] = []
        # outgoing transitions per (thread, state), in declaration order
        self.out: list[list[list[tuple[int, Transition]]]] = []
        self.thread_transitions: list[tuple[Transition, ...]] = []
        for t in program.threads:
            sid = {s: i for i, s in enumerate(t.states)}
            self.state_id.append(sid)
            self.init_states.append(sid[t.init])
            for r in t.regs:
                self.rid[r] = len(regs)
                regs.append(r)
            self.reg_slices.append(slice(len(regs) - len(t.regs), len(regs)))
            by_state: list[list[tuple[int, Transition]]] = [[] for _ in t.states]
            for pos, tr in enumerate(t.transitions):
                by_state[sid[tr.src]].append((pos, tr))
            self.out.append(by_state)
            self.thread_transitions.append(t.transitions)
        self.regs = tuple(regs)
        self.ops = [tuple(self.resolve(tr.op) for tr in trs)
                    for trs in self.thread_transitions]

    def resolve(self, op: Op) -> tuple:
        """operands(op) with the variable and registers as their ids."""
        return operands(op, self.rid.__getitem__, self.vid.__getitem__)

    def target_idx(self, target: Target) -> tuple[int, int]:
        if target.thread not in self.tid:
            raise KeyError(f"unknown thread '{target.thread}'")
        ti = self.tid[target.thread]
        if target.state not in self.state_id[ti]:
            raise KeyError(f"unknown state '{target.state}' in thread '{target.thread}'")
        return ti, self.state_id[ti][target.state]


# indexes kept across calls; a bench pass uses at most 24 programs, and each
# index holds a few KB
_PROGRAMS = 128


@lru_cache(maxsize=_PROGRAMS)
def program_index(program: Program) -> ProgramIndex:
    return ProgramIndex(program)
