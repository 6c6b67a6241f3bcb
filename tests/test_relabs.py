import random

import pytest

from tsocbmc import (
    EQ, LE, LT, NEQ, abstract_of, canonical_key, decode_key,
    key_length, le, lt, parse_program, rel_apply, rel_check, rel_initial,
)


def _rank_oracle(values):
    # rank(v) = number of distinct smaller values
    return tuple(sum(1 for w in set(values) if w < v) for v in values)


@pytest.mark.parametrize("values", [
    (0, 0, 0),
    (5, 1, 5, 0),
    (2,),
    (9, 8, 7, 7, 9),
    (),
])
def test_abstract_of_matches_counting_oracle(values):
    assert abstract_of(values) == _rank_oracle(values)


def test_abstract_of_random_vectors():
    rng = random.Random(7)
    for _ in range(300):
        vals = [rng.randrange(0, 9) for _ in range(rng.randrange(1, 8))]
        got = abstract_of(vals)
        assert got == _rank_oracle(vals)
        # dense: every rank below the max occurs
        assert set(got) == set(range(max(got) + 1))
        # order preserving
        for i in range(len(vals)):
            for j in range(len(vals)):
                assert (vals[i] < vals[j]) == (got[i] < got[j])


@pytest.mark.parametrize("rel,a,b,expected", [
    (EQ, 2, 2, True), (EQ, 1, 2, False),
    (NEQ, 1, 2, True), (NEQ, 2, 2, False),
    (LT, 1, 2, True), (LT, 2, 2, False),
    (lt(3), 1, 2, True),   # any strict gap may be inflated later
    (lt(3), 2, 2, False),
    (LE, 2, 2, True), (LE, 3, 2, False),
    (le(1), 1, 2, True),   # positive offset needs a strict gap
    (le(1), 2, 2, False),
])
def test_rel_check_table(rel, a, b, expected):
    assert rel_check(rel, a, b) is expected


def test_rel_apply_copy_and_guard():
    r = abstract_of((0, 3, 5))
    assert rel_apply(r, [("copy", 0, 2)]) == [abstract_of((5, 3, 5))]
    assert rel_apply(r, [("guard", LT, 0, 1)]) == [r]
    assert rel_apply(r, [("guard", LT, 1, 0)]) == []


def test_fresh_placement_count_is_twice_the_classes():
    # others form m classes: m join-slots plus m strictly-between/above slots
    for vals in [(0, 0, 0), (0, 1, 2), (0, 5, 5, 9)]:
        r = abstract_of(vals)
        out = rel_apply(r, [("fresh", 0)])
        m = len(set(r[1:]))
        assert len(out) == 2 * m
        assert len(set(out)) == 2 * m  # all placements distinct


def test_fresh_placements_cover_every_concrete_outcome():
    # no below-bottom slot exists, which is exact as long as the fixed
    # sentinel 0 is among the untouched values, as it is in machine states
    rng = random.Random(3)
    for _ in range(200):
        vals = [0] + [rng.randrange(0, 6) for _ in range(3)]
        r = abstract_of(vals)
        placements = set(rel_apply(r, [("fresh", 2)]))
        for new in range(0, 8):
            vals2 = list(vals)
            vals2[2] = new
            assert abstract_of(vals2) in placements


def _densify_ref(vals):
    ordered = sorted(set(vals))
    return tuple(ordered.index(v) for v in vals)


def _rel_apply_ref(ranks, effects):
    # the plain definition: apply each effect on a doubled scale where
    # needed, then re-rank the whole tuple
    states = [ranks]
    for eff in effects:
        nxt = []
        for r in states:
            if eff[0] == "copy":
                r2 = list(r)
                r2[eff[1]] = r[eff[2]]
                nxt.append(_densify_ref(r2))
            elif eff[0] == "guard":
                if rel_check(eff[1], r[eff[2]], r[eff[3]]):
                    nxt.append(r)
            else:  # fresh
                d = eff[1]
                classes = sorted({v for i, v in enumerate(r) if i != d})
                doubled = {v: 2 * i for i, v in enumerate(classes)}
                for slot in range(2 * len(classes)):
                    r2 = [slot if i == d else doubled[v] for i, v in enumerate(r)]
                    nxt.append(_densify_ref(r2))
        states = nxt
    return states


@pytest.mark.parametrize("ranks,effects", [
    ((0, 1, 1, 2), [("copy", 1, 2)]),            # into its own class
    ((0, 1, 1, 2), [("copy", 1, 3)]),            # leaves a shared class
    ((0, 1, 2, 2), [("copy", 1, 0)]),            # empties a singleton class
    ((0, 2, 1, 2), [("copy", 2, 1)]),            # empties a middle class
    ((0, 1, 2, 1), [("fresh", 2)]),              # fresh on a singleton
    ((0, 1, 1, 2), [("fresh", 1)]),              # fresh on a shared class
    ((0, 1, 2), [("guard", LT, 2, 1)]),          # failing guard: no successor
    ((0, 1, 2), [("fresh", 1), ("guard", LT, 1, 2), ("copy", 2, 0)]),
    ((0, 1, 2, 2), [("copy", 1, 3)]),            # flush empties a singleton
    ((0, 1, 1, 2), [("copy", 1, 2), ("copy", 3, 0)]),  # a no-op, then a move
    ((0, 1, 2, 3), [("copy", 1, 3), ("copy", 2, 3)]),  # two copies, one source
    ((0, 2, 1, 3, 1), [("copy", 1, 3), ("copy", 2, 4),  # a flush as _switch
                       ("copy", 3, 0), ("copy", 4, 0)]),  # emits it
    ((0, 1, 2), [("guard", LT, 2, 1), ("fresh", 1)]),   # fails before a fresh
    ((0, 1, 1, 2), [("fresh", 1), ("fresh", 3)]),       # two fresh values
    ((0, 1, 2), [("fresh", 1), ("copy", 2, 1), ("fresh", 2),
                 ("guard", NEQ, 1, 2)]),                 # fresh, copy, fresh
    ((0, 1, 2), [("fresh", 1), ("guard", lt(2), 0, 1)]),  # offset guards
    ((0, 1, 2), [("fresh", 1), ("guard", le(1), 1, 2)]),  # after a fresh
    ((0, 0, 1), [("fresh", 2), ("guard", le(1), 1, 2),
                 ("guard", lt(2), 0, 2)]),
])
def test_rel_apply_matches_reference_cases(ranks, effects):
    assert rel_apply(ranks, effects) == _rel_apply_ref(ranks, effects)


def test_rel_apply_returns_the_input_when_nothing_moves():
    # passing guards and copies within one class change no rank, so the
    # result is the input tuple itself, not an equal copy
    r = (0, 1, 1, 2, 0)
    for effects in ([], [("copy", 1, 2)], [("guard", EQ, 1, 2)],
                    [("copy", 4, 0), ("guard", lt(2), 0, 3), ("copy", 2, 1),
                     ("guard", LE, 1, 2), ("guard", NEQ, 0, 3)]):
        out = rel_apply(r, effects)
        assert out == [r]
        assert out[0] is r


def test_rel_apply_matches_reference_on_random_effects():
    rng = random.Random(11)
    rels = [EQ, NEQ, LT, LE, lt(2), le(1)]
    for _ in range(3000):
        n = rng.randrange(1, 8)
        ranks = abstract_of([0] + [rng.randrange(0, 5) for _ in range(n - 1)])
        effects = []
        for _ in range(rng.randrange(1, 5)):
            tag = rng.choice(("copy", "guard", "fresh", "flush"))
            if tag == "copy":
                effects.append(("copy", rng.randrange(n), rng.randrange(n)))
            elif tag == "guard":
                effects.append(("guard", rng.choice(rels),
                                rng.randrange(n), rng.randrange(n)))
            elif tag == "fresh":
                effects.append(("fresh", rng.randrange(n)))
            elif n > 1:
                # copies as in a flush: no destination is a source
                cols = rng.sample(range(n), n)
                cut = rng.randrange(1, n)
                effects.extend(("copy", d, rng.choice(cols[cut:])) for d in cols[:cut])
        # list equality: the successors and their order
        assert rel_apply(ranks, effects) == _rel_apply_ref(ranks, effects)


def test_abstract_of_dense_classes():
    # three classes, {3} < {0, 1} < {2}, on ranks 0..2 with none skipped
    assert abstract_of((4, 4, 7, 1)) == (1, 1, 2, 0)
    assert abstract_of((0, 2)) == (0, 1)  # no rank left empty between them


def test_initial_and_key_round_trip():
    r = rel_initial(5)
    assert r == (0,) * 5
    flat = (3, 1, 0, 2)
    key = canonical_key(flat, r)
    assert decode_key(len(flat), key) == (flat, r)


def test_key_length_closed_form():
    p = parse_program(
        "domain nat\nvars x y\n"
        "thread a {\n  regs r1 r2\n  init q\n"
        "  q -> q1 : r1 := *\n  q1 -> q2 : write x r1\n"
        "  q2 -> q3 : read x r2\n  q3 -> q4 : assume r2 = r1\n}\n"
        "thread b {\n  regs s1\n  init q\n  q -> q1 : read y s1\n}\n")
    # nt=2 nx=2, k=3; R={x,y}, a reads and writes x, b only reads y, and
    # s1 is assigned but never used:
    # control 2+3+1+4+6=16, ranks 1+2+2+2*2+1=10
    assert key_length(p, 3) == 26
