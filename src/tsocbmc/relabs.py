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
concretization later restores sufficiency by inflating gaps.

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

rel_apply runs on every memo miss of the search, and most effect lists give
at most one successor, so it carries a single tuple through the list: a
failing guard ends it with no successor, a copy within one class is
skipped, and only a copy across classes builds a new tuple.  Only a fresh
value branches, and the effects after it then run once per placement.  When
nothing moves, the one successor is the input tuple object itself, which
lets the search keep its rank id without a lookup.
"""
from __future__ import annotations

from typing import Sequence

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
