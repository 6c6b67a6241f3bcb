"""Command-line front end.

Subcommands: parse (canonicalize a model file), check (context-bounded
reachability through the abstraction), simulate (bounded concrete search,
plain or context-bounded), gen (emit generated programs), selftest (the
randomized differential suites).  Exit codes: 0 for unreachable or plain
success, 1 for reachable, 2 for usage or parse errors or a bound above its
limit (k <= 254 for check; for simulate a buffer bound of at most 255 and a
domain bound of at most 250), 3 when a search gave up
on a resource bound (state count, or current resident memory against
TSOCBMC_MAX_MB), 4 for an internal error such as a witness that fails to
concretize.  No failure exits 0 or 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from ._record import asdict
from .abmachine import ab_machine
from .dsl import (
    ParseError, parse_dfa, parse_dlcs, parse_program_with_target,
    program_diagnostics, render_dfa, render_dlcs, render_program,
)
from .engine import ConcretizationError, check_reach, concretize_witness
from .generators import gen_bakery, gen_dlcs_reduction, gen_intersection
from .model import (
    InvalidProgramError, ModelTooLargeError, Program, Target, program_index,
    validate,
)
from .tso import Bounds, cb_reach_bounded, tso_reach_bounded
from .verdict import BOUND_EXHAUSTED, Verdict


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


def _write_out(path: Optional[str], text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {path}: {e}")
    else:
        sys.stdout.write(text)


def _sniff_kind(text: str) -> str:
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        word = body.split()[0]
        return word if word in ("dfa", "dlcs") else "program"
    return "program"


def _load_program(path: str, text: Optional[str] = None
                  ) -> tuple[Program, Optional[Target]]:
    """Parse and validate a program file; `text` is its content when the
    caller has read it already.  An invalid program raises
    InvalidProgramError, each diagnostic prefixed with the path and then
    the line and column it points at."""
    if text is None:
        text = _read_text(path)
    program, inline = parse_program_with_target(text)
    if validate(program):
        raise InvalidProgramError([f"{path}: {d}" for d in program_diagnostics(text)])
    return program, inline


def _check_target(program: Program, target: Target) -> None:
    try:
        program_index(program).target_idx(target)
    except KeyError as e:
        raise UsageError(str(e.args[0]) if e.args else str(e))


def _resolve_target(args, program: Program, inline: Optional[Target]) -> Target:
    if getattr(args, "target", None):
        spec = args.target
        if ":" not in spec:
            raise UsageError("--target expects THREAD:STATE")
        t, s = spec.split(":", 1)
        target = Target(t.strip(), s.strip())
    elif inline is not None:
        target = inline
    else:
        raise UsageError("no target: add a 'target' line to the file or pass --target")
    _check_target(program, target)
    return target


def _finish(args, verdict: Verdict, target: Target, k: Optional[int],
            shown_k: str, steps_json: list[dict]) -> int:
    """The output tail of check and simulate: the witness lines with
    --witness, the one summary line, the --out report, and the exit code.
    A capped search also names its cap on stderr."""
    if args.witness:
        for entry in steps_json:
            print("  " + entry["label"])
    print(f"{verdict.status}: target {target.thread}:{target.state}{shown_k} "
          f"({verdict.stats.states_explored} states explored)")
    if args.out:
        report = {
            "reachable": verdict.reachable,
            "k": k,
            "target": {"thread": target.thread, "state": target.state},
            "witness": steps_json,
            "stats": {**asdict(verdict.stats),
                      "wall_ms": int(round(verdict.stats.wall_ms))},
        }
        _write_out(args.out, json.dumps(report, indent=2) + "\n")
    if verdict.reachable:
        return 1
    if verdict.status == BOUND_EXHAUSTED:
        print(f"stopped by {verdict.stats.stop_reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_parse(args) -> int:
    text = _read_text(args.file)
    kind = _sniff_kind(text)
    if kind == "dfa":
        out = render_dfa(parse_dfa(text))
    elif kind == "dlcs":
        out = render_dlcs(parse_dlcs(text))
    else:
        program, inline = _load_program(args.file, text)
        if inline is not None:
            _check_target(program, inline)
        out = render_program(program, inline)
    _write_out(args.out, out)
    return 0


def _cmd_check(args) -> int:
    if args.k < 1:
        raise UsageError("--k expects a positive context count")
    _check_max_states(args)
    program, inline = _load_program(args.file)
    target = _resolve_target(args, program, inline)
    if args.out:  # an unwritable path fails before the search, not after
        _write_out(args.out, "")
    verdict = check_reach(program, target, args.k,
                          max_states=args.max_states, max_mb=_max_mb())
    steps_json: list[dict] = []
    if verdict.reachable:
        run = concretize_witness(program, verdict.witness)
        m = ab_machine(program, verdict.witness.k)
        for ab_step, c_step in zip(verdict.witness.steps, run.steps):
            steps_json.append({
                "thread": m.idx.thread_ids[c_step.label[1]],
                "label": m.render_label(c_step.label),
                "effects": [m.render_effect(e) for e in ab_step.effects],
                "values": dict(zip(m.names, c_step.values)),
            })
    return _finish(args, verdict, target, args.k, f" k={args.k}", steps_json)


def _max_mb() -> Optional[float]:
    """The memory cap of check and simulate, from TSOCBMC_MAX_MB."""
    env = os.environ.get("TSOCBMC_MAX_MB")
    if not env:
        return None
    try:
        max_mb = float(env)
    except ValueError:
        max_mb = math.nan
    # nan would turn the cap off, and a cap <= 0 stops the first RSS check
    # as if memory had run out
    if not 0 < max_mb < math.inf:
        raise UsageError("TSOCBMC_MAX_MB must be a positive finite number "
                         f"of megabytes, got {env!r}")
    return max_mb


def _check_max_states(args) -> None:
    # a cap below 1 would end the search at once and exit 3, as if it had
    # run out of room
    if args.max_states < 1:
        raise UsageError("--max-states expects a positive state count")


def _cmd_simulate(args) -> int:
    _check_max_states(args)
    program, inline = _load_program(args.file)
    target = _resolve_target(args, program, inline)
    try:
        b = Bounds(args.buffer_bound, args.domain_bound, args.depth)
    except ValueError as e:
        raise UsageError(str(e))
    max_mb = _max_mb()
    if args.cb is not None and args.cb < 1:
        raise UsageError("--cb expects a positive context count")
    if args.out:  # an unwritable path fails before the search, not after
        _write_out(args.out, "")
    if args.cb is not None:
        verdict = cb_reach_bounded(program, target, args.cb, b,
                                   max_states=args.max_states, max_mb=max_mb)
    else:
        verdict = tso_reach_bounded(program, target, b,
                                    max_states=args.max_states, max_mb=max_mb)
    steps_json = []
    if verdict.reachable:
        steps_json = [{"thread": label.thread, "label": label.render(),
                       "effects": [], "values": {}}
                      for label, _cfg in verdict.witness.steps]
    return _finish(args, verdict, target, args.cb, "", steps_json)


def _cmd_gen(args) -> int:
    if args.kind == "bakery":
        if args.n < 1:
            raise UsageError("--n must be at least 1")
        g = gen_bakery(args.n)
    elif args.kind == "intersection":
        dfas = [parse_dfa(_read_text(path)) for path in args.files]
        try:
            g = gen_intersection(dfas)
        except ValueError as e:
            raise UsageError(str(e))
    else:
        m = parse_dlcs(_read_text(args.file))
        try:
            g = gen_dlcs_reduction(m)
        except ValueError as e:
            raise UsageError(str(e))
    _write_out(args.out, f"# suggested contexts: k={g.k_hint}\n" + g.to_text())
    return 0


def _cmd_selftest(args) -> int:
    # imported here so that check and simulate do not compile the suites
    from .selftest import run_suites
    bad_scale = UsageError("--scale expects a positive finite multiplier")
    if not 0 < args.scale < math.inf:   # also rejects nan
        raise bad_scale
    try:
        results = run_suites(seed=args.seed, scale=args.scale, only=args.suite)
    except ValueError as e:
        raise UsageError(str(e))
    except OverflowError:
        # a case count past the largest float, before any suite ran
        raise bad_scale
    for res in results:
        print(res.line())
        for f in res.failures[:10]:
            print(f"    {f}")
    return 0 if all(r.ok for r in results) else 1


# parse_args keeps no state between calls, so one parser serves them all
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsocbmc",
        description="Context-bounded reachability for store-buffer programs "
                    "over an infinite data domain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a model file and print it back "
                                     "in canonical form")
    p.add_argument("file")
    p.add_argument("--out", help="write the canonical form here instead of stdout")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="context-bounded reachability through "
                                     "the abstraction")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True,
                   help="number of contexts to explore")
    p.add_argument("--target", help="THREAD:STATE, overrides the file's target")
    p.add_argument("--witness", action="store_true",
                   help="print the witness steps when reachable")
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("simulate", help="bounded concrete search, for "
                                        "cross-checking")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tso", action="store_true",
                      help="plain bounded search, no context bound")
    mode.add_argument("--cb", type=int, metavar="K",
                      help="context-bounded search with K contexts")
    p.add_argument("--target", help="THREAD:STATE, overrides the file's target")
    p.add_argument("--buffer-bound", type=int, default=2)
    p.add_argument("--domain-bound", type=int, default=3,
                   help="values range over 0..N")
    p.add_argument("--depth", type=int, default=300)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--max-states", type=int, default=1_000_000)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gen", help="emit a generated program")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("bakery", help="ticket mutual exclusion with a "
                                       "violation monitor")
    g.add_argument("--n", type=int, required=True, help="number of contenders")
    g.add_argument("--out")
    g = gsub.add_parser("intersection", help="single-thread program whose "
                                             "target is reachable iff the "
                                             "given automata accept a common "
                                             "word")
    g.add_argument("files", nargs="+", metavar="DFA_FILE")
    g.add_argument("--out")
    g = gsub.add_parser("dlcs", help="two-thread program simulating a lossy "
                                     "channel system")
    g.add_argument("file", metavar="DLCS_FILE")
    g.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("selftest", help="run the randomized differential suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.25,
                   help="multiplier on the per-suite case counts")
    p.add_argument("--suite", help="run a single suite by name")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except InvalidProgramError as e:
        for d in e.diagnostics:
            print(d, file=sys.stderr)
        return 2
    except ModelTooLargeError as e:
        print(f"model too large: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ConcretizationError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        # an uncaught exception would exit 1, which reads as "reachable"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
