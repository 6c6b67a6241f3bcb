"""TSO litmus tests from corpus/, checked against their published verdicts.

Each corpus file names its source and expected verdict.  A forbidden
outcome is unreachable on both engines at every k up to 6; an allowed one
is reachable on both at its least k and on neither below it, and its
witness replays as a store-buffer run of that many contexts.
"""
from pathlib import Path

import pytest

from tsocbmc import (
    Bounds, cb_partition_check, cb_reach_bounded, check_reach,
    concrete_run_to_tso, concretize_witness, parse_program_with_target,
    validate_witness,
)
from tsocbmc.model import program_index

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ORACLE = Bounds(2, 2, 60)
MAX_K = 6

# file: the least k at which its target is reachable, None for forbidden
VERDICTS = {
    "mp_stale.tso": None,
    "lb.tso": None,
    "sb_arw.tso": None,
    "iriw.tso": None,
    "wrc.tso": None,
    "corr.tso": None,
    "2p2w.tso": None,
    "s.tso": None,
    "iriw_both.tso": 4,
    "2p2w_allowed.tso": 6,
    "s_allowed.tso": 4,
    "r.tso": 4,
    "n6.tso": 4,
}


@pytest.mark.parametrize("name, least", VERDICTS.items())
def test_litmus_verdicts(name, least):
    p, tgt = parse_program_with_target((CORPUS / name).read_text())
    for k in range(1, (least or MAX_K) + 1):
        want = k == least
        v = check_reach(p, tgt, k)
        assert v.reachable == want, (name, k)
        assert cb_reach_bounded(p, tgt, k, ORACLE).reachable == want, (name, k)
    if least is not None:
        run = concretize_witness(p, v.witness)
        assert validate_witness(p, run)
        tso_run = concrete_run_to_tso(p, run)
        tti, tsi = program_index(p).target_idx(tgt)
        assert tso_run.final.st[tti] == tsi
        assert cb_partition_check(tso_run, least)
