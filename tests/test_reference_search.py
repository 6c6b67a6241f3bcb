"""The interned searches against plain breadth-first searches of the same
state spaces.

The abstraction's reference keeps (control tuple, rank tuple) pairs as they
are: no interning and no memo of rel_apply.  It walks the schedules it is
given level by level, by the rule check_reach follows, and steps every
state with AbMachine.successors, cached per control tuple, and rel_apply.
successors splices each control tuple's own transitions_flat entries, so
the reference has no keyed tables.  Over the schedules in _seed_order,
check_reach must agree with it on the status, the states explored, the
peak frontier and the witness.
Over every repeat-free schedule that contains the target thread, it must
agree on the status and the witness, so a schedule _seed_order drops
wrongly shows as a missed hit.

The oracle's reference does the same for tso_reach_bounded and
cb_reach_bounded: level by level over (TsoConfig, active thread, blocks
used) through tso_enabled and tso_step, with no interning and no move table.
"""
import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from tsocbmc import (
    BOUND_EXHAUSTED, REACHABLE, UNREACHABLE, UNREACHABLE_WITHIN_BOUNDS, Bounds,
    cb_reach_bounded, check_reach, gen_bakery, initial_config,
    parse_program_with_target, rel_apply, rel_initial, tso_enabled,
    tso_reach_bounded, tso_step,
)
from tsocbmc.abmachine import ab_machine
from tsocbmc.engine import _seed_order
from tsocbmc.model import program_index
from tsocbmc.selftest import random_program, random_target

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def every_schedule(m, tti):
    """Every repeat-free length-k schedule that contains the target thread,
    for two or more threads: those ending on it first, then the rest, each
    group in lexicographic order."""
    acts = [act for act in product(range(m.nt), repeat=m.k)
            if tti in act and all(a != b for a, b in zip(act, act[1:]))]
    return sorted(acts, key=lambda act: (act[-1] != tti, act))


def reference_search(program, target, k, max_states=2_000_000, schedules=_seed_order):
    """(status, states explored, peak frontier, witness), where the witness
    is None unless the status is reachable, and otherwise the schedule and
    its steps, each (label, effects, rank tuple after).  schedules(machine,
    target thread) gives the schedules to walk, in order."""
    m = ab_machine(program, k)
    ti, si = m.idx.target_idx(target)
    r0 = rel_initial(m.nab)
    table = {}

    def moves(flat):
        # successors per control tuple, computed on first sight
        if flat not in table:
            table[flat] = m.successors(flat)
        return table[flat]

    def hits(flat):
        return flat[m.ST + ti] == si

    def witness(walk, state):
        # walk back through the batches, each step from the least
        # (control tuple, rank tuple, move index) whose move yields the state
        steps = []
        for level in walk:
            flat2, ranks2 = state
            flat, ranks, _, label, eff = min(
                (flat, ranks, j, label, eff)
                for flat, batch in level.items()
                for j, (label, eff, to) in enumerate(moves(flat)) if to == flat2
                for ranks in batch if ranks2 in rel_apply(ranks, eff))
            steps.append((label, eff, ranks2))
            state = (flat, ranks)
        return state[0][m.ACT:m.ACT + k], steps[::-1]

    # level by level per schedule; each level maps a control tuple to its
    # batch of rank tuples, in the order the control tuples first received
    # a new state.  The batches with a move to the target are probed first,
    # and the first whose hit moves yield a state ends the search
    seen = set()
    explored = peak = 0
    for act in schedules(m, ti):
        root = (m.initial_flat(act), r0)
        if root in seen:
            continue
        seen.add(root)
        if hits(root[0]):
            return REACHABLE, explored, peak, witness([], root)
        levels = [{root[0]: [r0]}]
        while levels[-1]:
            level = levels[-1]
            probed = 0
            for flat, batch in level.items():
                to_target = [(eff, to) for _, eff, to in moves(flat) if hits(to)]
                if not to_target:
                    continue
                probed += len(batch)
                found = [(to, ranks2) for eff, to in to_target
                         for ranks in batch for ranks2 in rel_apply(ranks, eff)]
                if found:
                    walk = [{flat: batch}] + levels[-2::-1]
                    return REACHABLE, explored + probed, peak, witness(walk, min(found))
            # no move to the target yields a state now, so none is stored
            nxt = {}
            for flat, batch in level.items():
                explored += len(batch)
                for _, eff, to in moves(flat):
                    for ranks in batch:
                        for ranks2 in rel_apply(ranks, eff):
                            if (to, ranks2) not in seen:
                                seen.add((to, ranks2))
                                nxt.setdefault(to, []).append(ranks2)
                if len(seen) > max_states:
                    return BOUND_EXHAUSTED, explored, peak, None
            peak = max(peak, sum(map(len, nxt.values())))
            levels.append(nxt)
    return UNREACHABLE, explored, peak, None


def searched(program, target, k, max_states):
    """check_reach's verdict in the form reference_search returns."""
    v = check_reach(program, target, k, max_states=max_states)
    got = (v.status, v.stats.states_explored, v.stats.peak_frontier, None)
    if v.witness is not None:
        m = ab_machine(program, k)
        act = tuple(m.idx.tid[t] for t in v.witness.act)
        got = got[:3] + ((act, [(s.label, s.effects, s.rel_after)
                                for s in v.witness.steps]),)
    return got


def assert_same_search(program, target, k, max_states=2_000_000):
    want = reference_search(program, target, k, max_states)
    assert searched(program, target, k, max_states) == want
    return want[0]


def assert_same_verdict_over_every_schedule(program, target, k, max_states=2_000_000):
    """The status and witness of the reference over every schedule, or
    "capped" when only that reference, walking more schedules, stops at the
    cap and check_reach decides unreachable."""
    want = reference_search(program, target, k, max_states, every_schedule)
    status, _, _, witness = searched(program, target, k, max_states)
    if want[0] == BOUND_EXHAUSTED and status == UNREACHABLE:
        return "capped"
    assert (status, witness) == (want[0], want[3])
    return want[0]


@pytest.mark.parametrize("name", ["mp", "sb"])
def test_corpus_matches_the_reference(name):
    p, tgt = parse_program_with_target((CORPUS / f"{name}.tso").read_text())
    statuses = [assert_same_search(p, tgt, k) for k in range(1, 6)]
    assert REACHABLE in statuses and UNREACHABLE in statuses


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 4),
                                 (2, 1), (2, 2), (2, 3)])
def test_bakery_matches_the_reference(n, k):
    g = gen_bakery(n)
    assert assert_same_search(g.program, g.target, k) == UNREACHABLE


def test_random_programs_match_the_reference():
    # a cap that ends a few of the larger searches, so capped runs compare too
    rng = random.Random(23)
    seen = set()
    for _ in range(200):
        p = random_program(rng)
        tgt = random_target(rng, p)
        for k in (1, 2, 3):
            seen.add(assert_same_search(p, tgt, k, max_states=500))
    assert seen == {REACHABLE, UNREACHABLE, BOUND_EXHAUSTED}


def test_caps_at_their_edges():
    # sb at k=2 is unreachable and stores its 189 states: a cap of 189 lets
    # the search finish, and one lower ends it after the batch that stores
    # the last state
    p, tgt = parse_program_with_target((CORPUS / "sb.tso").read_text())
    statuses = [assert_same_search(p, tgt, 2, max_states=cap)
                for cap in range(187, 191)]
    assert statuses == [BOUND_EXHAUSTED] * 2 + [UNREACHABLE] * 2


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 4),
                                 (2, 1), (2, 2), (2, 3)])
def test_bakery_matches_every_schedule(n, k):
    g = gen_bakery(n)
    assert assert_same_verdict_over_every_schedule(g.program, g.target, k) == UNREACHABLE


def test_random_programs_match_every_schedule():
    # two and three threads at k=1..4, with a cap that keeps each reference
    # search short; the cases the cap leaves open are counted, not compared
    rng = random.Random(31)
    seen = Counter()
    for threads in (2, 3):
        for _ in range(100):
            p = random_program(rng, threads)
            tgt = random_target(rng, p)
            for k in (1, 2, 3, 4):
                seen[assert_same_verdict_over_every_schedule(p, tgt, k, max_states=400)] += 1
    print(dict(seen))
    assert seen[REACHABLE] > seen[UNREACHABLE] > 0


def oracle_reference_search(program, target, b, contexts=None, max_states=1_000_000,
                            visited=None):
    """(status, states explored, peak frontier, witness labels, stop reason)
    of the bounded concrete search, with at most `contexts` blocks when
    given.  A state is (configuration, active thread, blocks used); a step by
    another thread than the active one opens a block.  The stop reason is
    "max_states" when the cap ends the search, "depth" when the depth runs
    out with states left to explore, and empty otherwise.  A caller that
    passes an empty dict as `visited` sees the states the search stored."""
    ti, si = program_index(program).target_idx(target)
    # state -> (parent state, label), None at the root
    state = (initial_config(program), None, 0)
    visited = {} if visited is None else visited
    visited[state] = None
    explored = peak = depth = 0

    def result(status, state=None, stop=""):
        if status != REACHABLE:
            return status, explored, peak, None, stop
        labels = []
        while visited[state] is not None:
            state, label = visited[state]
            labels.append(label)
        return status, explored, peak, labels[::-1], stop

    if state[0].st[ti] == si:
        return result(REACHABLE, state)
    frontier = [state]
    while frontier and depth < b.depth:
        depth += 1
        level, frontier = frontier, []
        for state in level:
            explored += 1
            conf, active, blocks = state
            for label in tso_enabled(program, conf, b):
                if contexts is not None and label.thread != active:
                    if blocks == contexts:
                        continue
                    active2, blocks2 = label.thread, blocks + 1
                else:
                    active2, blocks2 = active, blocks
                state2 = (tso_step(program, conf, label), active2, blocks2)
                if state2 in visited:
                    continue
                visited[state2] = (state, label)
                if state2[0].st[ti] == si:
                    return result(REACHABLE, state2)
                if len(visited) > max_states:
                    return result(BOUND_EXHAUSTED, stop="max_states")
                frontier.append(state2)
        peak = max(peak, len(frontier))
    return result(UNREACHABLE_WITHIN_BOUNDS, stop="depth" if frontier else "")


def assert_same_oracle_search(program, target, b, contexts=None, max_states=1_000_000):
    want = oracle_reference_search(program, target, b, contexts, max_states)
    if contexts is None:
        v = tso_reach_bounded(program, target, b, max_states=max_states)
    else:
        v = cb_reach_bounded(program, target, contexts, b, max_states=max_states)
    labels = None if v.witness is None else list(v.witness.labels)
    got = (v.status, v.stats.states_explored, v.stats.peak_frontier, labels,
           v.stats.stop_reason)
    assert got == want
    return want[0]


@pytest.mark.parametrize("name", ["mp", "sb"])
def test_corpus_matches_the_oracle_reference(name):
    p, tgt = parse_program_with_target((CORPUS / f"{name}.tso").read_text())
    statuses = [assert_same_oracle_search(p, tgt, Bounds(2, 2, 40), contexts)
                for contexts in (None, 1, 2, 3, 4)]
    assert REACHABLE in statuses and UNREACHABLE_WITHIN_BOUNDS in statuses


def test_random_programs_match_the_oracle_reference():
    # a cap that ends a few of the larger searches, so capped runs compare too
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        p = random_program(rng)
        tgt = random_target(rng, p)
        for contexts in (None, 1, 2, 3):
            seen.add(assert_same_oracle_search(p, tgt, Bounds(2, 2, 30), contexts,
                                               max_states=800))
    assert seen == {REACHABLE, UNREACHABLE_WITHIN_BOUNDS, BOUND_EXHAUSTED}


def test_oracle_caps_and_depths_at_their_edges():
    # sb at three contexts stores `stored` states, the target's among them,
    # and its witness has 15 labels: caps and depths on either side of those.
    # The target is checked before the cap, so a cap of stored - 1 still
    # reaches it and the caps start one lower
    p, tgt = parse_program_with_target((CORPUS / "sb.tso").read_text())
    b = Bounds(2, 2, 60)
    visited = {}
    want = oracle_reference_search(p, tgt, b, 3, visited=visited)
    assert want[0] == REACHABLE and len(want[3]) == 15
    stored = len(visited)
    statuses = {assert_same_oracle_search(p, tgt, b, 3, max_states=cap)
                for cap in range(stored - 2, stored + 2)}
    assert statuses == {REACHABLE, BOUND_EXHAUSTED}
    statuses = [assert_same_oracle_search(p, tgt, Bounds(2, 2, depth), 3)
                for depth in (14, 15)]
    assert statuses == [UNREACHABLE_WITHIN_BOUNDS, REACHABLE]
