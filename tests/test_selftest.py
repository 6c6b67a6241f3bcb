import random

import pytest

from tsocbmc import Bounds, replay, validate
from tsocbmc.selftest import (
    SuiteResult, _reachable_witness_runs, random_cb_run, random_program,
    random_target, run_suites,
)


def test_random_programs_are_valid():
    rng = random.Random(11)
    for _ in range(50):
        p = random_program(rng)
        assert validate(p) == []
        t = random_target(rng, p)
        assert any(th.id == t.thread and t.state in th.states
                   for th in p.threads)


def test_random_cb_run_respects_the_partition():
    rng = random.Random(5)
    for _ in range(30):
        p = random_program(rng)
        k = rng.choice((1, 2, 3))
        run = random_cb_run(p, k, Bounds(2, 3, 300), rng)
        blocks = 0
        cur = None
        for label in run.labels:
            if label.thread != cur:
                blocks += 1
                cur = label.thread
        assert blocks <= k
        # the run replays: random_cb_run built it step by step
        assert replay(p, list(run.labels)).final == run.final


def test_witness_runs_count_only_witnesses_with_steps():
    # a target the initial state hits has an empty witness, which tests no
    # concretization or inflation, so it is not a case
    steps = []
    res = SuiteResult("demo")
    _reachable_witness_runs(random.Random(0), 40,
                            lambda p, tgt, k, v: steps.append(len(v.witness.steps)),
                            res)
    assert res.ok and res.cases == len(steps) == 40
    assert min(steps) > 0


def test_witness_runs_try_in_proportion_to_the_cases_wanted(monkeypatch):
    # the attempts grow with the cases wanted, so a large scale is no
    # failure: here one search in 50 is reachable, and 150 cases take 7,500
    # attempts, more than the 6,000 that the default of 100 cases allows
    from types import SimpleNamespace

    from tsocbmc import selftest
    searches = 0
    hit = SimpleNamespace(reachable=True, witness=SimpleNamespace(steps=(None,)))
    miss = SimpleNamespace(reachable=False, witness=None)

    def one_in_50(*args, **kwargs):
        nonlocal searches
        searches += 1
        return hit if searches % 50 == 0 else miss

    monkeypatch.setattr(selftest, "check_reach", one_in_50)
    res = SuiteResult("demo")
    _reachable_witness_runs(random.Random(0), 150, lambda p, tgt, k, v: None, res)
    assert res.ok and res.cases == 150 and searches == 7500


def test_suite_result_lines():
    ok = SuiteResult("demo", cases=3)
    assert ok.ok and ok.line() == "PASS demo: 3 cases, 0 failures"
    bad = SuiteResult("demo", cases=3, failures=["case 1: boom"])
    assert not bad.ok
    assert bad.line() == "FAIL demo: 3 cases, 1 failures"
    skipped = SuiteResult("demo", cases=3, skipped=2)
    assert "2 skipped" in skipped.line()


def test_run_suites_unknown_name():
    with pytest.raises(ValueError):
        run_suites(only="nope")


def test_run_suites_tiny_scale_all_green():
    results = run_suites(seed=3, scale=0.03)
    assert [r.name for r in results] == [
        "cb-vs-abstract", "step-soundness", "witness-concretization",
        "value-inflation", "update-normalization",
    ]
    for r in results:
        assert r.ok, r.line() + " " + "; ".join(r.failures[:3])
