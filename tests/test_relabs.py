import random
from array import array
from itertools import product

import pytest

from tsocbmc import (
    EQ, LE, LT, NEQ, abstract_of, canonical_key, decode_key,
    key_length, le, lt, parse_program, rel_apply, rel_check, rel_initial,
)
from tsocbmc.relabs import NO_SUCCESSOR, UNKNOWN, rank_kernel


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


def test_rank_kernel_matches_rel_apply_on_random_effects():
    # the recipe above without fresh values, run on a random batch of rank
    # ids that mixes unknown memo entries with known ones: a stored rank id
    # that is not the step's successor, so a kernel that recomputes a known
    # entry fails, and NO_SUCCESSOR.  Each list's kernel steps the batch in
    # both rank forms a search gives it, bytes and tuples of ints
    rng = random.Random(12)
    rels = [EQ, NEQ, LT, LE, lt(2), le(1)]
    mixed = emptied = 0
    for _ in range(3000):
        n = rng.randrange(1, 8)
        effects = []
        for _ in range(rng.randrange(1, 5)):
            tag = rng.choice(("copy", "guard", "flush"))
            if tag == "copy":
                effects.append(("copy", rng.randrange(n), rng.randrange(n)))
            elif tag == "guard":
                effects.append(("guard", rng.choice(rels),
                                rng.randrange(n), rng.randrange(n)))
            elif n > 1:
                cols = rng.sample(range(n), n)
                cut = rng.randrange(1, n)
                effects.extend(("copy", d, rng.choice(cols[cut:])) for d in cols[:cut])
        old = list(dict.fromkeys(
            abstract_of([0] + [rng.randrange(0, 5) for _ in range(n - 1)])
            for _ in range(rng.randrange(1, 9))))
        want = [rel_apply(r, effects) for r in old]
        # the first rid is unknown, the second holds a wrong rank id, the
        # third NO_SUCCESSOR, and the others any of the three
        rids = list(range(len(old)))
        rng.shuffle(rids)
        row = array("i", [UNKNOWN] * len(old))
        for i, rid in enumerate(rids[1:], 1):
            role = i if i < 3 else rng.randrange(3)
            if role == 1:
                row[rid] = rng.choice([e for e in range(len(old))
                                       if want[rid] != [old[e]]])
            elif role == 2:
                row[rid] = NO_SUCCESSOR
        before = row.tolist()
        batch = rids[:rng.randrange(min(3, len(rids)), len(rids) + 1)]
        rng.shuffle(batch)
        mixed += len({min(before[rid], 0) for rid in batch}) == 3
        # a copy that empties a class lowers the top rank
        emptied += any(before[rid] == UNKNOWN and want[rid]
                       and max(want[rid][0]) < max(old[rid]) for rid in batch)
        assert UNKNOWN in (before[rid] for rid in batch)
        for form in (bytes, tuple):
            row = array("i", before)
            packed = [form(r) for r in old]
            ids = list(range(len(packed)))
            rank_id = dict(zip(packed, ids))
            kids = rank_kernel(tuple(effects), form)(batch, packed, ids, rank_id, row)
            # a moved tuple keeps the form; compared below as tuples of ints
            assert all(type(r) is form for r in packed)
            # ids grows with ranks, one id per new tuple
            assert ids == list(range(len(packed)))
            ranks = [tuple(r) for r in packed]

            new = []
            for rid in batch:
                if before[rid] != UNKNOWN:
                    continue
                entry = row[rid]
                if not want[rid]:
                    assert entry == NO_SUCCESSOR
                    continue
                assert len(want[rid]) == 1 and ranks[entry] == want[rid][0]
                # the rid is kept exactly when nothing moved
                assert (entry == rid) == (want[rid][0] == old[rid])
                if want[rid][0] not in old and want[rid][0] not in new:
                    new.append(want[rid][0])
            # new tuples are interned in batch order, one rank id each
            assert ranks == old + new
            assert rank_id == {r: i for i, r in enumerate(packed)}
            # known entries are untouched, and so are unknown ones not in
            # the batch
            assert all(row[rid] == before[rid] for rid in range(len(old))
                       if before[rid] != UNKNOWN or rid not in batch)
            # the successors in batch order, known ones as stored
            assert kids == [row[rid] for rid in batch if row[rid] != NO_SUCCESSOR]
        # two fresh values anywhere in the list: no machine emits one, and
        # no kernel is compiled for it
        at = rng.randrange(len(effects) + 1)
        with_fresh = (effects[:at] + [("fresh", rng.randrange(n))] + effects[at:]
                      + [("fresh", rng.randrange(n))])
        for form in (bytes, tuple):
            with pytest.raises(ValueError, match="more than one fresh value"):
                rank_kernel(tuple(with_fresh), form)
    # half the batches hold all three kinds of entry; a batch of one or two
    # rank ids cannot
    assert mixed > 1000, mixed
    # a third of them empty a class, which bytes close by translate and
    # tuples by re-ranking
    assert emptied > 500, emptied


def _fresh_kernel_run(old, effects, known, form):
    """rank_kernel(effects, form) on the batch of every rank tuple in old,
    in that form, after storing a wrong successor tuple for the rids in
    known; returns the successors, the row and the interned tuples as
    tuples."""
    kernel = rank_kernel(tuple(effects), form)
    packed = [form(r) for r in old]
    ids = list(range(len(packed)))
    rank_id = dict(zip(packed, ids))
    row = [None] * len(packed)
    for rid in known:
        row[rid] = (rid, rid)
    kids = kernel(list(range(len(old))), packed, ids, rank_id, row)
    assert all(type(r) is form for r in packed)
    assert ids == list(range(len(packed)))
    assert rank_id == {r: i for i, r in enumerate(packed)}
    # each successor is the shared object of its id
    assert all(e is ids[e] for e in kids)
    return kids, row, [tuple(r) for r in packed]


def _assert_fresh_kernel_matches(old, effects, known=(), form=bytes):
    kids, row, ranks = _fresh_kernel_run(old, effects, known, form)
    want = []
    for rid, r in enumerate(old):
        if rid in known:
            # a stored entry is returned as it is, with no step
            assert row[rid] == (rid, rid)
            want += [r, r]
            continue
        succ = [tuple(x) for x in rel_apply(r, effects)]
        # the memo entry: rel_apply's successors, in order
        assert type(row[rid]) is tuple
        assert [ranks[e] for e in row[rid]] == succ, (r, effects)
        want += succ
    # the successors in batch order
    assert [ranks[e] for e in kids] == want, (old, effects)
    return want


@pytest.mark.parametrize("ranks, effects", [
    ((0, 1, 2), [("fresh", 2)]),                     # d alone in the top class
    ((0, 1, 2, 1), [("fresh", 2)]),                  # alone in the top, 3 columns
    ((0, 0, 1), [("fresh", 1)]),                     # d shares class 0 with the sentinel
    ((0, 0), [("fresh", 1)]),                        # the others are one class
    ((0, 1), [("fresh", 1)]),                        # one class, d alone above it
    ((0,), [("fresh", 0)]),                          # no other column: no placement
    ((0, 1, 1, 2), [("fresh", 1)]),                  # d shares a middle class
    ((0, 1, 2), [("fresh", 2), ("guard", NEQ, 2, 1)]),  # a tail guard drops some
    ((0, 1, 2), [("guard", LT, 2, 1), ("fresh", 1)]),  # a head guard fails
    ((0, 1, 2), [("fresh", 1), ("copy", 1, 0)]),      # a reset: equal successors
    ((0, 2, 1, 2), [("copy", 3, 0), ("fresh", 2), ("copy", 1, 2),
                    ("guard", le(1), 0, 1)]),
])
def test_fresh_kernel_edge_rows(ranks, effects):
    for form in (bytes, tuple):
        want = _assert_fresh_kernel_matches([ranks], effects, form=form)
        assert want == [tuple(r) for r in _rel_apply_ref(ranks, effects)]


def test_tuple_kernels_step_ranks_past_one_byte():
    # ranks above 255, which bytes cannot hold: a copy that empties class
    # 270 moves the one rank above it down, and a fresh value placed above
    # class 300 opens a rank of 302
    r = tuple(range(272))
    effects = (("copy", 270, 269),)
    ranks, ids = [r], [0]
    rank_id = {r: 0}
    row = array("i", [UNKNOWN])
    assert rank_kernel(effects, tuple)([0], ranks, ids, rank_id, row) == [1]
    assert list(row) == [1] and ranks[1:] == rel_apply(r, effects)
    assert ranks[1][269:] == (269, 269, 270)
    r = tuple(range(301)) + (150,)
    want = _assert_fresh_kernel_matches([r], [("fresh", 301)], form=tuple)
    assert want == [tuple(x) for x in rel_apply(r, [("fresh", 301)])]
    assert len(want) == 602 and want[-1] == r[:301] + (301,)


def test_fresh_kernel_tail_guard_drops_placements_only():
    # of the four placements of r1 beside (0, 1), r1 < r2 keeps the join of
    # class 0 and the slot just above it, in that order
    want = _assert_fresh_kernel_matches([(0, 2, 1)], [("fresh", 1),
                                                      ("guard", LT, 1, 2)])
    assert want == [(0, 0, 1), (0, 1, 2)]
    # placements in order: join class c, then the slot above it; r2 alone
    # in the top class leaves two classes
    assert _assert_fresh_kernel_matches([(0, 1, 2)], [("fresh", 2)]) == [
        (0, 1, 0), (0, 2, 1), (0, 1, 1), (0, 1, 2)]


def test_fresh_kernel_matches_rel_apply_on_random_effects():
    # one fresh value at any position, guards and copies before it, resets,
    # guards and copies after it, on a batch of random dense rank tuples of
    # which some hold a stored entry
    rng = random.Random(13)
    rels = [EQ, NEQ, LT, LE, lt(2), le(1)]

    def effects(n, count, reset):
        out = []
        for _ in range(count):
            tag = rng.choice(("copy", "guard"))
            if tag == "copy":
                out.append(("copy", rng.randrange(n), 0 if reset else rng.randrange(n)))
            else:
                out.append(("guard", rng.choice(rels), rng.randrange(n),
                            rng.randrange(n)))
        return out

    dropped = stopped = 0
    for _ in range(1500):
        n = rng.randrange(1, 8)
        effs = (effects(n, rng.randrange(4), False) + [("fresh", rng.randrange(n))]
                + effects(n, rng.randrange(3), rng.random() < 0.5))
        old = list(dict.fromkeys(
            abstract_of([0] + [rng.randrange(0, 5) for _ in range(n - 1)])
            for _ in range(rng.randrange(1, 6))))
        known = {rid for rid in range(1, len(old)) if rng.random() < 0.3}
        for form in (bytes, tuple):
            _assert_fresh_kernel_matches(old, effs, known, form)
        at = [e[0] for e in effs].index("fresh")
        for rid, r in enumerate(old):
            if rid in known:
                continue
            head = rel_apply(r, effs[:at])
            if head:
                placed = rel_apply(head[0], effs[at:at + 1])
                kept = rel_apply(r, effs)
                dropped += 0 < len(kept) < len(placed)
            else:
                stopped += 1
    # tail guards that drop some placements and head guards that drop all
    assert dropped > 150, dropped
    assert stopped > 150, stopped


def test_rank_kernel_returns_the_shared_id_objects():
    # past 256 every int read from a memo row is a new object, so a kernel
    # returns the one ids holds, both for a stored successor and for a tuple
    # it interns, and rank_id maps the new tuple to that object too
    kernel = rank_kernel((("copy", 1, 2),), bytes)
    stored, succ = (0, 1, 2, 3, 4, 5), (0, 1, 1, 2, 3, 4)
    fresh, fresh_succ = (0, 1, 2, 2, 3, 4), (0, 1, 1, 1, 2, 3)
    pad = sorted({abstract_of((0,) + v) for v in product(range(4), repeat=5)}
                 - {stored, succ, fresh, fresh_succ})
    assert len(pad) > 256
    ranks = [bytes(r) for r in pad + [stored, succ, fresh]]
    ids = list(range(len(ranks)))
    rank_id = dict(zip(ranks, ids))
    at = len(pad)
    row = array("i", [UNKNOWN] * len(ranks))
    row[at] = at + 1
    kids = kernel([ids[at], ids[at + 2]], ranks, ids, rank_id, row)
    assert kids == [at + 1, at + 3] and tuple(ranks[at + 3]) == fresh_succ
    assert kids[0] is ids[at + 1]
    assert kids[1] is ids[at + 3] and rank_id[ranks[at + 3]] is ids[at + 3]


def test_rank_kernel_rejects_a_column_that_is_not_an_int(monkeypatch):
    # columns are the only values formatted into a kernel's source, so a
    # column that is not an int fails before any source is compiled
    from tsocbmc import relabs

    def no_compile(*args):
        raise AssertionError("kernel source compiled")
    monkeypatch.setattr(relabs, "compile", no_compile, raising=False)
    for effects in ((("copy", 0, "1"),),
                    (("copy", None, 0),),
                    (("guard", EQ, 0, 1), ("guard", LT, 1.5, 0))):
        with pytest.raises(TypeError, match="not an int"):
            rank_kernel(effects, bytes)


def test_each_rank_kernel_has_its_own_filename():
    # cProfile keys functions by (filename, line, name): one shared filename
    # would fold every kernel into one entry
    kernels = [rank_kernel((("copy", 0, 1),), bytes),
               rank_kernel((("copy", 0, 1), ("guard", lt(2), 1, 0)), bytes),
               rank_kernel((("guard", LE, 0, 1),), tuple)]
    names = [k.__code__.co_filename for k in kernels]
    assert len(set(names)) == 3 and all(n.startswith("<rank kernel ") for n in names)


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
