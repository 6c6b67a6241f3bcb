import json
from dataclasses import fields
from pathlib import Path

import pytest

from tsocbmc import Stats, parse_dlcs, parse_program_with_target
from tsocbmc.abmachine import ab_machine
from tsocbmc.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
MP = str(CORPUS / "mp.tso")
SB = str(CORPUS / "sb.tso")

DFA_ENDS_A = """dfa
alphabet a b
states p0 p1
init p0
finals p1
p0 a -> p1
p0 b -> p0
p1 a -> p1
p1 b -> p0
"""

DFA_EVEN = """dfa
alphabet a b
states e0 e1
init e0
finals e0
e0 a -> e1
e0 b -> e1
e1 a -> e0
e1 b -> e0
"""

DLCS = """dlcs
states q0 q1 q2 qF
vars v w
alphabet a
init q0
target qF
q0 -> q1 : v := *
q1 -> q2 : send a v
q2 -> qF : recv a w
"""


def test_check_exit_codes_follow_the_flip(capsys):
    assert main(["check", MP, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("unreachable:")
    assert main(["check", MP, "--k", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("reachable:")


def test_check_witness_flag_prints_steps(capsys):
    assert main(["check", MP, "--k", "2", "--witness"]) == 1
    out = capsys.readouterr().out
    assert "w: w0 -> w1 : w_one := *" in out
    assert "switch to context" in out


def test_check_json_report(tmp_path, capsys):
    rpt = tmp_path / "report.json"
    assert main(["check", MP, "--k", "2", "--out", str(rpt)]) == 1
    capsys.readouterr()
    data = json.loads(rpt.read_text())
    assert data["reachable"] is True
    assert data["k"] == 2
    assert data["target"] == {"thread": "r", "state": "done"}
    # the stats object is Stats itself, field by field in order
    assert list(data["stats"]) == [f.name for f in fields(Stats)]
    assert data["stats"]["states_explored"] > 0
    # every explored state pairs one of the control states with ranks
    assert 0 < data["stats"]["control_states"] <= data["stats"]["states_explored"]
    # the search's interned rank tuples and its rel_apply memo misses
    assert (data["stats"]["rank_tuples"], data["stats"]["rel_apply_calls"]) == (10, 24)
    assert isinstance(data["stats"]["wall_ms"], int)
    assert data["stats"]["stop_reason"] == ""
    assert data["witness"], "a reachable report carries witness steps"
    step = data["witness"][0]
    assert set(step) == {"thread", "label", "effects", "values"}
    assert isinstance(step["values"], dict)
    # report is deterministic apart from timing
    rpt2 = tmp_path / "report2.json"
    assert main(["check", MP, "--k", "2", "--out", str(rpt2)]) == 1
    capsys.readouterr()
    d1 = json.loads(rpt.read_text())
    d2 = json.loads(rpt2.read_text())
    d1["stats"].pop("wall_ms")
    d2["stats"].pop("wall_ms")
    assert d1 == d2


def test_check_bound_exhausted_exit(tmp_path, capsys):
    rpt = tmp_path / "capped.json"
    assert main(["check", SB, "--k", "3", "--max-states", "50",
                 "--out", str(rpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("bound_exhausted:")
    assert captured.err == "stopped by max_states\n"
    assert json.loads(rpt.read_text())["stats"]["stop_reason"] == "max_states"


def test_simulate_bound_exhausted_names_the_cap(tmp_path, capsys):
    rpt = tmp_path / "capped.json"
    assert main(["simulate", SB, "--cb", "3", "--max-states", "100",
                 "--out", str(rpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("bound_exhausted:")
    assert captured.err == "stopped by max_states\n"
    assert json.loads(rpt.read_text())["stats"]["stop_reason"] == "max_states"


def test_check_target_override(capsys):
    assert main(["check", MP, "--k", "1", "--target", "w:w4"]) == 1
    capsys.readouterr()
    assert main(["check", MP, "--k", "1", "--target", "w:nots"]) == 2
    err = capsys.readouterr().err
    assert "nots" in err


def test_check_max_mb_env(monkeypatch, capsys):
    # nan would switch the cap off, and a cap <= 0 would end the search at
    # its first memory check as if memory had run out
    for bad in ("not-a-number", "nan", "inf", "-inf", "0", "-5"):
        monkeypatch.setenv("TSOCBMC_MAX_MB", bad)
        assert main(["check", MP, "--k", "1"]) == 2, bad
        err = capsys.readouterr().err
        assert "TSOCBMC_MAX_MB" in err and repr(bad) in err
    monkeypatch.setenv("TSOCBMC_MAX_MB", "100000")
    assert main(["check", MP, "--k", "1"]) == 0
    capsys.readouterr()


def test_check_memory_cap(monkeypatch, capsys, tmp_path):
    from tsocbmc import engine
    path, rpt = tmp_path / "bakery1.tso", tmp_path / "capped.json"
    assert main(["gen", "bakery", "--n", "1", "--out", str(path)]) == 0
    monkeypatch.setenv("TSOCBMC_MAX_MB", "100")
    monkeypatch.setattr(engine, "_rss_mb", lambda: 1e6)
    # 5,731 states uncapped: the memory is sampled after the batch that
    # takes the search past 4,096 explored states
    assert main(["check", str(path), "--k", "6", "--out", str(rpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "bound_exhausted: target mon:viol k=6 (4099 states explored)\n"
    assert captured.err == "stopped by max_mb\n"
    assert json.loads(rpt.read_text())["stats"]["stop_reason"] == "max_mb"


# thread c1 writes and reads x, so its summary x@c1 sits beside the summary
# x@c1 of context 1; the idle thread d keeps the search at k=2, since a
# one-thread program is searched at k=1, where no context summary exists
THREAD_C1 = """domain nat
vars x
thread c1 {
  regs a b
  init q0
  q0 -> q1 : a := *
  q1 -> q2 : write x a
  q2 -> q3 : read x b
  q3 -> q4 : assume b = a
}
thread d {
  regs r
  init q0
  q0 -> q1 : r := *
}
target c1 : q4
"""


@pytest.mark.parametrize("text, clash", [
    # r's register data is named like the shared variable data
    (Path(MP).read_text().replace("r_data", "data"), "data#5"),
    (THREAD_C1, "x@c1#5"),
], ids=["register-named-like-a-variable", "thread-named-c1"])
def test_check_out_names_every_summary_column_once(text, clash, tmp_path, capsys):
    src = tmp_path / "clash.tso"
    src.write_text(text)
    rpt = tmp_path / "report.json"
    assert main(["check", str(src), "--k", "2", "--out", str(rpt)]) == 1
    capsys.readouterr()
    program, _ = parse_program_with_target(text)
    m = ab_machine(program, 2)
    assert len(set(m.names)) == m.nab and clash in m.names
    witness = json.loads(rpt.read_text())["witness"]
    for step in witness:
        assert len(step["values"]) == m.nab
    # the effect that reads the clashing column names it with its suffix
    assert any(clash in e for step in witness for e in step["effects"])


def test_model_above_encoding_limits_exits_2(tmp_path, capsys):
    # failures must never exit 1, which reads as "reachable"
    assert main(["check", MP, "--k", "300"]) == 2
    captured = capsys.readouterr()
    assert "model too large" in captured.err and "k=300" in captured.err
    assert "Traceback" not in captured.err + captured.out
    # a one-thread program is searched at k=1, but the limit holds for the
    # k asked for
    one = tmp_path / "one.tso"
    one.write_text("domain nat\nvars x\nthread t {\n  regs a\n  init q0\n"
                   "  q0 -> q1 : write x a\n}\ntarget t : q1\n")
    assert main(["check", str(one), "--k", "300"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "model too large: k=300 is above the limit of 254 contexts\n"
    assert main(["check", str(one), "--k", "254"]) == 1
    # bakery(6) at k=4 had 268 summary variables before the slice; 117 now
    from tsocbmc.abmachine import AbMachine
    from tsocbmc.generators import gen_bakery
    assert AbMachine(gen_bakery(6).program, 4).nab == 117


def test_model_past_255_summary_variables_is_searched(tmp_path, capsys):
    # bakery(11) at k=4 keeps 267 summary variables after the slice drops
    # those no step reads; the search runs until its state cap
    big = tmp_path / "bakery11.tso"
    assert main(["gen", "bakery", "--n", "11", "--out", str(big)]) == 0
    assert main(["check", str(big), "--k", "4", "--max-states", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "stopped by max_states\n"
    assert "Traceback" not in captured.out
    program, _ = parse_program_with_target(big.read_text())
    assert ab_machine(program, 4).nab == 267


def test_oracle_encoding_limits_exit_2(tmp_path, capsys):
    # a buffer longer than a byte can count used to end in a ValueError
    grow = tmp_path / "grow.tso"
    grow.write_text("domain nat\nvars x\nthread t {\n  regs a\n  init q0\n"
                    "  q0 -> q0 : write x a\n  q0 -> q1 : assume a != a\n}\n"
                    "target t : q1\n")
    assert main(["simulate", str(grow), "--tso", "--buffer-bound", "300",
                 "--depth", "400"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "model too large: buffer bound 300, above the limit of 255\n"
    assert "Traceback" not in captured.out
    # the context count has no such limit
    assert main(["simulate", str(grow), "--cb", "300"]) == 0
    assert capsys.readouterr().out.startswith("unreachable_within_bounds")


def test_concretization_failure_exits_4(monkeypatch, capsys):
    import tsocbmc.cli as cli
    from tsocbmc import ConcretizationError

    def broken(program, witness):
        raise ConcretizationError("replay left the witness ranks")

    monkeypatch.setattr(cli, "concretize_witness", broken)
    assert main(["check", MP, "--k", "2"]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "witness ranks" in err


def test_unexpected_exception_exits_4(monkeypatch, capsys):
    import tsocbmc.cli as cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_reach", crash)
    assert main(["check", MP, "--k", "1"]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "boom" in err


def test_simulate_modes(capsys):
    assert main(["simulate", MP, "--tso"]) == 1
    capsys.readouterr()
    assert main(["simulate", MP, "--cb", "1", "--depth", "60"]) == 0
    capsys.readouterr()
    assert main(["simulate", MP, "--cb", "2", "--depth", "60"]) == 1
    capsys.readouterr()
    # --tso and --cb are mutually exclusive
    assert main(["simulate", MP, "--tso", "--cb", "2"]) == 2
    capsys.readouterr()
    assert main(["simulate", MP, "--cb", "0"]) == 2
    capsys.readouterr()
    assert main(["simulate", MP, "--tso", "--domain-bound", "999"]) == 2
    capsys.readouterr()


def test_simulate_domain_bound_limit(tmp_path, capsys):
    assert main(["simulate", MP, "--tso", "--domain-bound", "251"]) == 2
    assert "limit of 250" in capsys.readouterr().err
    # no `:= *`, so the search stays small at the largest bound
    one = tmp_path / "one.tso"
    one.write_text("domain nat\nvars x\nthread t {\n  regs a\n  init q0\n"
                   "  q0 -> q1 : write x a\n}\ntarget t : q1\n")
    assert main(["simulate", str(one), "--tso", "--domain-bound", "250"]) == 1
    capsys.readouterr()


def test_parse_canonicalizes_program(tmp_path, capsys):
    messy = tmp_path / "messy.tso"
    messy.write_text("# c\ndomain nat\nvars data flag\nthread w {\n"
                     "regs r\ninit q0\nq0 -> q1 : write data r\n}\n")
    assert main(["parse", str(messy)]) == 0
    out = capsys.readouterr().out
    p, tgt = parse_program_with_target(out)
    assert tgt is None and p.shared_vars == ("data", "flag")
    # canonical output is a fixed point
    again = tmp_path / "again.tso"
    again.write_text(out)
    assert main(["parse", str(again)]) == 0
    assert capsys.readouterr().out == out


def test_parse_sniffs_dfa_and_dlcs(tmp_path, capsys):
    f = tmp_path / "m.dfa"
    f.write_text(DFA_ENDS_A)
    assert main(["parse", str(f)]) == 0
    assert capsys.readouterr().out == DFA_ENDS_A
    f2 = tmp_path / "m.dlcs"
    f2.write_text(DLCS)
    assert main(["parse", str(f2)]) == 0
    assert capsys.readouterr().out == DLCS


def test_non_ascii_offset_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "sup.tso"
    bad.write_text("domain nat\nthread t {\n  regs a b\n  init q0\n"
                   "  q0 -> q1 : assume a <\u00b2 b\n}\ntarget t : q1\n",
                   encoding="utf-8")
    for argv in (["parse", str(bad)], ["check", str(bad), "--k", "1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("parse error: line 5")


def test_parse_error_exit_and_message(tmp_path, capsys):
    bad = tmp_path / "bad.tso"
    bad.write_text("domain nat\nthread t {\n  init\n}\n")
    assert main(["parse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: line ")
    assert main(["parse", str(tmp_path / "missing.tso")]) == 2
    capsys.readouterr()


def test_invalid_program_prints_one_diagnostic_a_line(tmp_path, capsys):
    # two operations that parse but do not validate: a write to a variable
    # that is not declared, and a read into the other thread's register
    bad = tmp_path / "bad.tso"
    bad.write_text(Path(MP).read_text()
                   .replace("write data w_one", "write nope w_one")
                   .replace("read flag r_flag", "read flag w_one"))
    for argv in (["check", str(bad), "--k", "1"], ["simulate", str(bad), "--tso"],
                 ["parse", str(bad)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.splitlines() == [
            f"{bad}: thread 'w': operation 'write nope w_one' uses "
            "undeclared shared variable 'nope'",
            f"{bad}: thread 'r': operation 'read flag w_one' uses "
            "register 'w_one' not owned by the thread"], argv


def test_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.tso"
    bad.write_bytes(b"domain nat\n\xff\n")
    good = tmp_path / "even.dfa"
    good.write_text(DFA_EVEN)
    for argv in (["check", str(bad), "--k", "1"], ["parse", str(bad)],
                 ["gen", "intersection", str(good), str(bad)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"cannot read {bad}: "), argv


def test_unwritable_out_and_mismatched_alphabets_are_usage_errors(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["check", MP, "--k", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")
    ab = tmp_path / "even.dfa"
    ab.write_text(DFA_EVEN)
    a_only = tmp_path / "a.dfa"
    a_only.write_text("dfa\nalphabet a\nstates p\ninit p\nfinals p\np a -> p\n")
    assert main(["gen", "intersection", str(ab), str(a_only)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "alphabet mismatch\n" and captured.out == ""


def test_gen_bakery_round_trips_through_check(tmp_path, capsys):
    out = tmp_path / "bakery.tso"
    assert main(["gen", "bakery", "--n", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("# suggested contexts: k=4\n")
    p, tgt = parse_program_with_target(text)
    assert tgt is not None and tgt.thread == "mon"
    assert main(["gen", "bakery", "--n", "0"]) == 2
    capsys.readouterr()


def test_gen_intersection(tmp_path, capsys):
    fa = tmp_path / "a.dfa"
    fb = tmp_path / "b.dfa"
    fa.write_text(DFA_ENDS_A)
    fb.write_text(DFA_EVEN)
    out = tmp_path / "prod.tso"
    assert main(["gen", "intersection", str(fa), str(fb),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("# suggested contexts: k=1\n")
    prog = tmp_path / "prod_only.tso"
    prog.write_text(text)
    assert main(["check", str(prog), "--k", "1"]) == 1
    capsys.readouterr()


def test_gen_dlcs(tmp_path, capsys):
    f = tmp_path / "chan.dlcs"
    f.write_text(DLCS)
    out = tmp_path / "chan.tso"
    assert main(["gen", "dlcs", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    m = parse_dlcs(DLCS)
    sends_recvs = 2
    assert text.startswith(f"# suggested contexts: k={2 + 2 * sends_recvs}\n")
    p, tgt = parse_program_with_target(text)
    assert {t.id for t in p.threads} == {"t", "t_ch"}
    assert tgt.state == m.target


def test_gen_and_parse_reject_duplicate_declarations(tmp_path, capsys):
    # their generated programs would declare a register or variable twice
    dfa = tmp_path / "dup.dfa"
    dfa.write_text("dfa\nalphabet a a\nstates p p\ninit p\nfinals p\np a -> p\n")
    dlcs = tmp_path / "dup.dlcs"
    dlcs.write_text("dlcs\nstates q\nvars v v\nalphabet a a\ninit q\ntarget q\n")
    for argv in (["gen", "intersection", str(dfa)], ["parse", str(dfa)],
                 ["gen", "dlcs", str(dlcs)], ["parse", str(dlcs)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "duplicate" in captured.err and captured.out == "", argv


def test_selftest_tiny(capsys):
    rc = main(["selftest", "--scale", "0.02", "--seed", "1",
               "--suite", "step-soundness"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS step-soundness:")
    assert main(["selftest", "--suite", "no-such-suite"]) == 2
    capsys.readouterr()


def test_console_script_entry_point():
    import shutil
    import subprocess
    exe = shutil.which("tsocbmc")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "check", MP, "--k", "2"],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stdout.startswith("reachable:")


def test_usage_errors(capsys):
    assert main(["check", MP]) == 2            # --k is required
    capsys.readouterr()
    assert main([]) == 2                       # a subcommand is required
    capsys.readouterr()
    assert main(["check", MP, "--k", "1", "--target", "broken"]) == 2
    err = capsys.readouterr().err
    assert "THREAD:STATE" in err
    assert main(["check", MP, "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert "positive context count" in err
    assert main(["check", MP, "--k", "1", "--threads", "4"]) == 2
    err = capsys.readouterr().err
    assert "--threads" in err
    # a bad cap is bad input, not a search that hit its cap (exit 3)
    for argv in (["check", MP, "--k", "1", "--max-states", "-5"],
                 ["check", MP, "--k", "1", "--max-states", "0"],
                 ["simulate", MP, "--tso", "--max-states", "-1"],
                 ["simulate", MP, "--cb", "2", "--max-states", "0"]):
        assert main(argv) == 2, argv
        assert "--max-states" in capsys.readouterr().err
    for scale in ("-1", "0", "nan", "inf", "1e308"):
        assert main(["selftest", "--scale", scale]) == 2, scale
        assert "--scale" in capsys.readouterr().err


_NUMBERS = ("0", "1", "255", "256", "300", "65536", "1" + "0" * 30)


def _mutate(text, rng):
    """One to three random edits of a model file: a line deleted or
    duplicated, two tokens swapped, or a token replaced by an out-of-range
    number, bare or as a relation offset."""
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 4)):
        op = rng.randrange(4)
        i = rng.randrange(len(lines))
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        else:
            words = [(n, w) for n, line in enumerate(lines)
                     for w in range(len(line.split()))]
            rows = [line.split() for line in lines]
            (n1, w1), (n2, w2) = rng.choice(words), rng.choice(words)
            if op == 2:
                rows[n1][w1], rows[n2][w2] = rows[n2][w2], rows[n1][w1]
            else:
                num = rng.choice(_NUMBERS)
                rows[n1][w1] = rng.choice((num, "<" + num, "<=" + num))
            lines = [" ".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def test_mutated_models_never_crash(tmp_path, capsys):
    # every mutant ends in a documented verdict, usage or cap exit, never
    # in an internal error (4) or a traceback
    import random
    rng = random.Random(2024)
    seen = {0: 0, 1: 0, 2: 0, 3: 0}
    for src in (SB, MP):
        text = Path(src).read_text()
        for n in range(150):
            f = tmp_path / f"m{n}.tso"
            mutant = _mutate(text, rng)
            f.write_text(mutant)
            rc = main(["check", str(f), "--k", "2", "--max-states", "20000"])
            out = capsys.readouterr()
            assert rc in seen, (rc, out.err, mutant)
            assert "Traceback" not in out.out + out.err, mutant
            seen[rc] += 1
    # the mutants reach the search, not only the parser
    assert seen[0] and seen[1] and seen[2]


def test_mutated_dfa_and_dlcs_files_never_crash(tmp_path, capsys):
    # parse and gen end every mutant in success or a parse/usage error, and
    # every program gen emits parses back
    import random
    rng = random.Random(2025)
    golden = Path(__file__).resolve().parent / "golden"
    out = tmp_path / "gen.tso"
    seen = {0: 0, 2: 0}
    for name in ("ends_a.dfa", "even.dfa", "chan.dlcs"):
        text = (golden / name).read_text()
        for n in range(100):
            f = str(tmp_path / f"m{n}_{name}")
            mutant = _mutate(text, rng)
            Path(f).write_text(mutant)
            gen = (["intersection", f, f] if name.endswith(".dfa")
                   else ["dlcs", f])
            for argv in (["parse", f], ["gen", *gen, "--out", str(out)]):
                out.unlink(missing_ok=True)
                rc = main(argv)
                got = capsys.readouterr()
                assert rc in seen, (argv, rc, got.err, mutant)
                assert "Traceback" not in got.out + got.err, mutant
                seen[rc] += 1
            if rc == 0:
                assert main(["parse", str(out)]) == 0, mutant
                capsys.readouterr()
    assert seen[0] and seen[2]


def test_dlcs_search_names_what_ended_it():
    from tsocbmc import dlcs_reach_bounded
    m = parse_dlcs(DLCS)
    capped = dlcs_reach_bounded(m, "qF", 2, 2, max_states=3)
    assert capped.status == "bound_exhausted"
    assert capped.stats.stop_reason == "max_states"
    shallow = dlcs_reach_bounded(m, "qF", 2, 2, depth=1)
    assert shallow.status == "bound_exhausted"
    assert shallow.stats.stop_reason == "depth"
    full = dlcs_reach_bounded(m, "qF", 2, 2)
    assert full.reachable and full.stats.stop_reason == ""
