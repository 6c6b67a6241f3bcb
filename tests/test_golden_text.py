"""Golden text: the stdout of `gen` and `parse`.

The order in which states are first mentioned fixes their ids, and with
them the search order and the witnesses, so the exact text is pinned.
tests/golden/gen_parse.json holds, per case, the arguments (paths relative
to the repository root) and the expected stdout.
"""
import json
from pathlib import Path

import pytest

from tsocbmc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "gen_parse.json").read_text())
CASES = {
    "gen bakery 1": ["gen", "bakery", "--n", "1"],
    "gen bakery 2": ["gen", "bakery", "--n", "2"],
    "gen bakery 3": ["gen", "bakery", "--n", "3"],
    "gen intersection": ["gen", "intersection", "tests/golden/ends_a.dfa",
                         "tests/golden/even.dfa"],
    "gen dlcs": ["gen", "dlcs", "tests/golden/chan.dlcs"],
    "parse mp": ["parse", "corpus/mp.tso"],
    "parse dfa": ["parse", "tests/golden/ends_a.dfa"],
    "parse dlcs": ["parse", "tests/golden/chan.dlcs"],
}


def run(argv: list[str], capsys) -> str:
    paths = [str(ROOT / a) if "/" in a else a for a in argv]
    assert main(paths) == 0
    return capsys.readouterr().out


def test_every_case_has_a_golden_text():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert run(CASES[name], capsys) == GOLDEN[name]
