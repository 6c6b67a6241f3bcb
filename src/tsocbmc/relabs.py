"""Order abstraction over the summary variables.

A state keeps only the ordering of the current values: each variable gets a
rank, equal values share a rank, and ranks are dense (0..m with every rank
occupied).  The sentinel variable always sits in rank 0 because naturals
cannot go below its fixed value 0.

Relation tests soften to what ranks can express:

  =            same rank
  !=           different ranks
  <N  (any N)  strictly smaller rank
  <=           rank less or equal
  <=N (N >= 1) strictly smaller rank

Distance constraints (the N offsets) cannot be decided from ranks alone;
requiring a strict rank gap is the exact necessary condition, and witness
concretization later restores sufficiency by spacing values widely.

A fresh value lands either inside one of the m+1 existing classes or in one
of the m+1 slots strictly between adjacent classes or above the top class.
There is no slot below the bottom class: the sentinel lives there and no
natural is smaller than 0.

rel_apply re-ranks incrementally instead of re-sorting the whole tuple, and
keeps the same invariant as abstract_of (the reference, which sorts):
ranks stay dense and equal values share a rank.  A copy only shifts the
ranks above a class it emptied; a fresh value closes the gap its old
singleton class leaves, then opens one above the class it lands after.
There are three effect kinds, copy, fresh and guard; the context-switch
flush arrives as plain copies (see abmachine).

rel_apply is the reference rank step.  Most effect lists give at most one
successor, so it carries a single tuple through the list: a failing guard
ends it with no successor, a copy within one class is skipped, and only a
copy across classes builds a new tuple.  Only a fresh value branches, and
the effects after it then run once per placement.  When nothing moves, the
one successor is the input tuple object itself; the rank kernels below test
the same identity to keep a rank id without a lookup.

The search memoizes the rank step per effect list and rank id (see
engine.check_reach), one batch of rank ids at a time.  Inside a search, a
rank tuple is a bytes object whenever the machine has at most 256 summary
columns, and a tuple of ints past that.  Bytes are exact: ranks are dense,
so every rank is below the column count, and bytes order as the tuples of
their values.

Every list a machine emits gets one kernel per rank form: rank_kernel
compiles its whole memo lookup, a loop over the batch that reads each memo
entry, returns a known successor without a step, and runs rel_apply's step
only on an entry not computed yet, with the guard comparisons and copies
written out per column (no dispatch on the effect tag, no unpacking); it
interns each new rank tuple, writes the memo entry and returns the
successor ids, each as the one int object the search keeps for that id.
A fresh-free list's memo row is an int array; a list with one fresh value
keeps the tuple of its successors in a list row.  The two forms' sources
differ only in how a column's rank is set and a class closed or opened:
bytes slice in one byte and translate by a table, tuples build the new
tuple.  No machine emits a list with two fresh values, and rank_kernel
rejects one.  rel_apply takes bytes too, since it only indexes, counts and
lists its input; each search checks the first entry each kernel computes
against it.  Kernels are cached per effect list and form across searches.
Every public function here takes and returns tuples.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Callable, Sequence

from .abmachine import ab_machine
from .model import Program, Relation, RelKind
from .model import program_index


def abstract_of(values: Sequence[int]) -> tuple[int, ...]:
    """Rank tuple of a concrete value vector."""
    remap = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(remap[v] for v in values)


# the guard kinds, bound once: rel_check compares them by identity
_EQ, _NEQ, _LT = RelKind.EQ, RelKind.NEQ, RelKind.LT


def rel_check(rel: Relation, rank_left: int, rank_right: int) -> bool:
    kind = rel.kind
    if kind is _EQ:
        return rank_left == rank_right
    if kind is _NEQ:
        return rank_left != rank_right
    # <N for any N, and <=N for N >= 1, need a strict rank gap
    if kind is _LT or rel.n:
        return rank_left < rank_right
    return rank_left <= rank_right


def rel_apply(ranks: tuple[int, ...], effects) -> list[tuple[int, ...]]:
    """Successor rank tuples of one effect list (core encoding).

    copy and passing guards give one successor, failing guards give
    none, and a fresh assignment branches over every placement of the new
    value relative to the other variables: join class c, then strictly above
    c, for c = 0..m over the others' classes in ascending order.

    One tuple is carried through the list and replaced only when a copy
    moves a variable to another class, so when nothing changes the result
    is [ranks] with the input tuple itself.  The list ends at the first
    failing guard, and a fresh value applies the rest of the list to each
    placement in turn.
    """
    r = ranks
    rest = iter(effects)
    for eff in rest:
        tag = eff[0]
        if tag == "copy":
            _, d, s = eff
            old, new = r[d], r[s]
            if old != new:
                r = _copy(r, d, old, new)
        elif tag == "guard":
            _, rel, a, b = eff
            if not rel_check(rel, r[a], r[b]):
                return []
        else:  # fresh
            tail = tuple(rest)
            out: list[tuple[int, ...]] = []
            for p in _fresh(r, eff[1]):
                out += rel_apply(p, tail)
            return out
    return [r]


def _copy(r: tuple[int, ...], d: int, old: int, new: int) -> tuple[int, ...]:
    """r with d moved from class old into class new, re-ranked in place:
    only when d's old class empties do the ranks above it shift down by
    one."""
    r2 = list(r)
    r2[d] = new
    if old in r2:
        return tuple(r2)
    return tuple([v - 1 if v > old else v for v in r2])


def _fresh(r: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Every placement of a fresh value at d, in rel_apply's order."""
    old = r[d]
    if r.count(old) > 1:
        # d shares its class: the others' ranks are already dense
        others = list(r)
        width = max(r) + 1
    else:
        # d was alone in its class, whose removal leaves a gap to close
        others = [v - 1 if v > old else v for v in r]
        width = max(r)
    others[d] = 0
    out = []
    for c in range(width):
        joined = list(others)
        joined[d] = c
        out.append(tuple(joined))
        # strictly above c: every class above c moves up one
        above = [v + 1 if v > c else v for v in others]
        above[d] = c + 1
        out.append(tuple(above))
    return out


# kernels kept across searches; a machine has tens of distinct effect lists
_KERNELS = 1024
# numbers the kernels' filenames in compile order
_KERNEL_NUMBERS = count()

# The entries of a memo row of a list without a fresh value, one per rank
# id (see engine.check_reach): the successor rank id, UNKNOWN before the
# step is computed, and NO_SUCCESSOR when a guard fails.  As 32-bit ints,
# UNKNOWN is the only entry whose top byte is 0xFF: a rank id's is at most
# 0x7F and NO_SUCCESSOR's is 0x80, so the search counts the filled entries
# of a row by that byte alone.  A list with a fresh value branches, and its
# row holds the tuple of successor rank ids, or None before the step is
# computed.
UNKNOWN = -1
NO_SUCCESSOR = -2**31

# A kernel moves a column of a bytes rank tuple by slicing in the one byte
# of its new rank, and closes an emptied class o with bytes.translate:
# the table for o maps every byte above o one down.  A fresh value opens
# the slot above class c with the table for c, which maps every byte above
# c one up; c is at most 254, since the other columns of a fresh value
# form at most 255 classes, and no rank tuple it applies to holds 255.
_IDENTITY = bytes(range(256))
_ONE = [_IDENTITY[v:v + 1] for v in range(256)]
_DOWN = [_IDENTITY[:o + 1] + _IDENTITY[o:255] for o in range(256)]
_UP = [_IDENTITY[:c + 1] + _IDENTITY[c + 2:] + b"\xff" for c in range(255)]

# The only source a kernel's rank form decides, per form: the one-column
# piece that sets a column to rank n, then r with class o closed, then r
# with the slot above class c opened.
_FORMS = {
    bytes: ("ONE[{}]", "r.translate(DOWN[o])", "r.translate(UP[c])"),
    tuple: ("({},)", "tuple([v - 1 if v > o else v for v in r])",
            "tuple([v + 1 if v > c else v for v in r])"),
}


def branches(effects) -> bool:
    """Whether an effect list can have more than one successor: it holds a
    fresh value."""
    return any(eff[0] == "fresh" for eff in effects)


def _fails(rel: Relation) -> str:
    """The operator on (left rank, right rank) under which rel_check fails,
    chosen as rel_check chooses its comparison."""
    kind = rel.kind
    if kind is _EQ:
        return "!="
    if kind is _NEQ:
        return "=="
    if kind is _LT or rel.n:
        return ">="
    return ">"


def _inline(effects, form: type, indent: str, fail: str) -> list[str]:
    """rel_apply's guards and copies on the rank tuple r of the given
    form, written out per column; a failing guard runs fail."""
    one, down, _ = _FORMS[form]
    lines = []
    for eff in effects:
        if eff[0] == "copy":
            _, d, s = eff
            if d == s:  # a self copy never moves
                continue
            # _copy, inline
            lines += [f"{indent}o = r[{d}]; n = r[{s}]",
                      f"{indent}if o != n:",
                      f"{indent} r = r[:{d}] + {one.format('n')} + r[{d + 1}:]",
                      f"{indent} if o not in r: r = {down}"]
        else:
            _, rel, a, b = eff
            lines.append(f"{indent}if r[{a}] {_fails(rel)} r[{b}]: {fail}")
    return lines


# interns the rank tuple r as e, its rank id, appended to ranks and ids when
# it is new
_INTERN = ["e = get(r)",
           "if e is None:",
           " e = rank_id[r] = len(ranks); ranks.append(r); ids.append(e)"]


@lru_cache(maxsize=_KERNELS)
def rank_kernel(effects: tuple, form: type) -> Callable:
    """The whole memo lookup of one effect list for a batch of rank ids,
    compiled to straight-line code for rank tuples of the given form,
    bytes or tuple (see the module docstring).

    kernel(rids, ranks, ids, rank_id, row) takes ranks holding that form,
    and ids, which holds the int object of each rank id and grows with
    ranks; rank_id maps each tuple to that same object.  It reads row[rid]
    for each rid of the batch, and only an entry not computed yet runs
    rel_apply's step on ranks[rid].  Each new tuple is interned with one
    rank_id.get and appended to ranks and ids when it is new.  The row must
    reach every rid of the batch.  It returns the successor rank ids in
    batch order, each as the shared object ids holds.

    A fresh-free list's row is an int array (see UNKNOWN).  A stored
    successor costs one comparison and is returned as ids[entry], not the
    int just read from the row; NO_SUCCESSOR is dropped.  An UNKNOWN entry
    becomes NO_SUCCESSOR when a guard fails, rid itself when nothing moved
    (no lookup), and otherwise the new tuple's rank id.

    A list with one fresh value has a list row: a stored tuple of rank ids
    is returned as it is, and a None entry becomes the tuple of the
    successors, () when a guard before the fresh value fails.  The fresh
    value's placements are built as _fresh builds them, each join then each
    above slot: d's old singleton class is closed, d is set, and the slot
    above class c is opened.  The effects after the fresh value run on each
    placement, and a failing guard there drops that placement only.  A list
    with two or more fresh values raises ValueError.

    The generated source holds only int column indices and fixed
    operators; every column is checked to be an int before any is built.
    """
    fresh = [i for i, eff in enumerate(effects) if eff[0] == "fresh"]
    if len(fresh) > 1:
        raise ValueError(f"effect list {effects!r} has more than one fresh value")
    for eff in effects:
        cols = eff[2:] if eff[0] == "guard" else eff[1:]
        if any(type(c) is not int for c in cols):
            raise TypeError(f"effect {eff!r} has a column that is not an int")

    one, down, up = _FORMS[form]
    lines = ["def kernel(rids, ranks, ids, rank_id, row):",
             " kids = []; get = rank_id.get"]
    if not fresh:
        lines += [" add = kids.append",
                  " for rid in rids:",
                  "  e = row[rid]",
                  "  if e >= 0: add(ids[e]); continue",
                  "  if e == NO_SUCCESSOR: continue",
                  "  r = q = ranks[rid]"]
        lines += _inline(effects, form, "  ", "row[rid] = NO_SUCCESSOR; continue")
        lines += ["  if r is q: row[rid] = rid; add(rid); continue"]
        lines += ["  " + line for line in _INTERN]
        lines += ["  row[rid] = e; add(e)"]
    else:
        at = fresh[0]
        d = effects[at][1]
        lines += [" more = kids.extend",
                  " for rid in rids:",
                  "  e = row[rid]",
                  "  if e is not None: more(e); continue",
                  "  r = ranks[rid]"]
        lines += _inline(effects[:at], form, "  ", "row[rid] = (); continue")
        # _fresh: w is the number of the other columns' classes
        lines += [f"  o = r[{d}]; w = max(r)",
                  "  if r.count(o) > 1: w += 1",
                  f"  else: r = {down}",
                  f"  lo = r[:{d}]; hi = r[{d + 1}:]; ps = []",
                  "  for c in range(w):",
                  f"   a = {up}",
                  f"   ps += (lo + {one.format('c')} + hi, "
                  f"a[:{d}] + {one.format('c + 1')} + a[{d + 1}:])",
                  "  out = []",
                  "  for r in ps:"]
        lines += _inline(effects[at + 1:], form, "   ", "continue")
        lines += ["   " + line for line in _INTERN]
        lines += ["   out.append(e)",
                  "  row[rid] = out = tuple(out); more(out)"]
    lines.append(" return kids")
    # a filename per kernel, so that a profile keeps the kernels apart; a
    # number, since a rendering of the list cost dfa-intersection 2% in
    # bytes_per_state
    namespace: dict = {"NO_SUCCESSOR": NO_SUCCESSOR, "ONE": _ONE,
                       "DOWN": _DOWN, "UP": _UP}
    exec(compile("\n".join(lines), f"<rank kernel {next(_KERNEL_NUMBERS)}>", "exec"),
         namespace)
    return namespace["kernel"]


def rel_initial(nab: int) -> tuple[int, ...]:
    """All summary variables start equal (everything is 0)."""
    return (0,) * nab


def canonical_key(flat: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Injective encoding of a search state: the control vector, then the
    ranks.  Each component is a natural below max(k + 2, threads + 1, states
    per thread, summary columns), the paper's polynomial state size.
    check_reach keeps states as interned ids and checks each new control
    tuple against this encoding."""
    return flat + ranks


def decode_key(flat_len: int, key: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return key[:flat_len], key[flat_len:]


def key_length(program: Program, k: int) -> int:
    """Length of every canonical key of (program, k): the machine's
    control vector, then one rank per summary column it keeps.  Which
    columns exist is the machine's decision (see abmachine)."""
    program_index(program)  # an invalid program fails here, before the k check
    m = ab_machine(program, k)
    return m.flat_len + m.nab
