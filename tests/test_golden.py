"""Golden witnesses: `check --out` witness entries and `--witness` stdout.

tests/golden/check_witness.json holds, per case, the exit code, the stdout
lines of `check --witness` and every witness entry of the `--out` report as
its compact JSON text, so key order is pinned along with the strings.
"""
import json
from pathlib import Path

import pytest

from tsocbmc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "check_witness.json").read_text())
CASES = {"mp k=2": ("mp.tso", 2), "sb k=3": ("sb.tso", 3),
         "bakery(2) k=4": (None, 4)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_witness_matches_golden(name, tmp_path, capsys):
    file, k = CASES[name]
    if file is None:
        path = tmp_path / "bakery2.tso"
        assert main(["gen", "bakery", "--n", "2", "--out", str(path)]) == 0
    else:
        path = ROOT / "corpus" / file
    rpt = tmp_path / "report.json"
    code = main(["check", str(path), "--k", str(k), "--witness", "--out", str(rpt)])
    want = GOLDEN[name]
    assert code == want["exit"]
    assert capsys.readouterr().out.splitlines() == want["stdout"]
    got = [json.dumps(e) for e in json.loads(rpt.read_text())["witness"]]
    assert got == want["witness"]
