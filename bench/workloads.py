"""The benchmark's four workloads and their known answers.

Every workload is a fixed list of searches.  `setup()` generates or parses
the programs and builds their machines and indexes; `run_pass()` runs every
search once, closed loop (each starts when the previous one has finished),
and checks each verdict against the known answer.  The benchmark seed only
permutes the order of the searches in the passes after the first: verdicts
and state counts must not depend on it, and the load stays the same from
seed to seed.

All calls into tsocbmc go through module attributes (`engine.check_reach`,
`generators.gen_bakery`, ...) so that a traced run can wrap them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# The criterion-4 instances are always the ones drawn from this seed, the
# same as tests/test_acceptance.py.  The load differs a lot by draw seed
# (seed 0 takes about 7 s, seed 1 about 25 s on a 2-core machine), so the
# benchmark seed does not redraw them.
DFA_DRAW_SEED = 0
DFA_INSTANCES = 24
DFA_MAX_STATES = 3_000_000
CLI_KS = (1, 2, 3, 4, 5)
# the smallest k at which the corpus target is reachable
CORPUS_FLIP = {"mp.tso": 2, "sb.tso": 3}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken hook, ...)."""


def load_package(root: Path):
    """Import tsocbmc from `root/src`, and from nowhere else."""
    src = root / "src"
    if not (src / "tsocbmc" / "__init__.py").is_file():
        raise BenchError(f"no tsocbmc sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("tsocbmc")
    if Path(pkg.__file__).resolve().parent != (src / "tsocbmc").resolve():
        raise BenchError(f"tsocbmc was imported from {pkg.__file__}, not {src}")
    for sub in ("abmachine", "cli", "dsl", "engine", "generators", "model",
                "relabs", "tso"):
        importlib.import_module(f"tsocbmc.{sub}")
    return pkg


@dataclass
class PassResult:
    seconds: float = 0.0
    wall_seconds: float = 0.0
    attempted: int = 0
    decided: int = 0
    # states explored per search, in job order whatever order the pass ran
    # in, so passes compare entry by entry
    states: list[int] = field(default_factory=list)
    peak_frontier: int = 0  # of the abstract searches (check_reach)
    failed: int = 0         # searches with a wrong verdict or a bad witness
    problems: list[str] = field(default_factory=list)

    def record(self, verdict) -> int:
        self.attempted += 1
        self.decided += verdict.status in ("reachable", "unreachable")
        return verdict.stats.states_explored


class Workload:
    name = ""
    # hooks (see tracing.HOOKS) that must see calls when this workload runs
    hot: tuple[str, ...] = ()

    def __init__(self, pkg, seed: int, root: Path):
        self.pkg = pkg
        self.seed = seed
        self.root = root

    def setup(self) -> int:
        """Generate or parse the programs and build their machines; return
        the number of searches in one pass."""
        raise NotImplementedError

    def known_answers(self) -> None:
        """Compute expected verdicts; never inside a timed region."""

    def job(self, i: int, out: PassResult) -> int:
        """Run search i (with its checks) and return its state count."""
        raise NotImplementedError

    def prepare(self) -> None:
        """The timed set-up: setup() plus the seeded order of the searches."""
        self.jobs = self.setup()
        self.shuffled = list(range(self.jobs))
        random.Random(self.seed).shuffle(self.shuffled)

    def run_pass(self, out: PassResult, seeded: bool) -> None:
        """One search after another, in job order or in the seeded order."""
        out.states = [0] * self.jobs
        for i in self.shuffled if seeded else range(self.jobs):
            seen = len(out.problems)
            out.states[i] = self.job(i, out)
            out.failed += len(out.problems) > seen

    # shared pieces -------------------------------------------------------

    def _build(self, program, k: int) -> None:
        self.pkg.model.program_index(program)
        self.pkg.abmachine.ab_machine(program, k)

    def _search(self, out: PassResult, tag: str, program, target, k: int,
                expect: bool, **caps) -> int:
        v = self.pkg.engine.check_reach(program, target, k, **caps)
        if v.status not in ("reachable", "unreachable") or v.reachable != expect:
            out.problems.append(f"{tag}: got {v.status}, expected "
                                f"{'reachable' if expect else 'unreachable'}")
        elif v.reachable:
            self._check_witness(out, tag, program, target, v)
        out.peak_frontier = max(out.peak_frontier, v.stats.peak_frontier)
        return out.record(v)

    def _check_witness(self, out: PassResult, tag: str, program, target,
                       verdict) -> None:
        """concretize -> validate -> rebuild a TSO run; the run must end at
        the target within the witness's k contexts."""
        engine = self.pkg.engine
        try:
            run = engine.concretize_witness(program, verdict.witness)
            engine.validate_witness(program, run)
            tso_run = engine.concrete_run_to_tso(program, run)
        except (ValueError, KeyError) as e:
            out.problems.append(f"{tag}: witness failed: {type(e).__name__}: {e}")
            return
        self._check_tso_run(out, tag, program, target, tso_run, verdict.witness.k)

    def _check_tso_run(self, out: PassResult, tag: str, program, target, run,
                       k: int) -> None:
        ti, si = self.pkg.model.program_index(program).target_idx(target)
        if run.final.st[ti] != si:
            out.problems.append(f"{tag}: rebuilt run does not end at the target")
        if not self.pkg.tso.cb_partition_check(run, k):
            out.problems.append(f"{tag}: rebuilt run uses more than {k} contexts")


class BakeryExhaustive(Workload):
    name = "bakery-exhaustive"
    hot = ("engine.check_reach", "engine.rel_apply", "engine.canonical_key",
           "engine.decode_key", "AbMachine.transitions_flat",
           "relabs.program_index", "AbMachine.__init__",
           "abmachine.program_index", "generators.gen_bakery")

    def setup(self) -> int:
        gen = self.pkg.generators.gen_bakery
        self.searches = [(f"bakery({n}) k={k}", gen(n), k) for n, k in ((1, 4), (2, 3))]
        for _, g, k in self.searches:
            self._build(g.program, k)
        return len(self.searches)

    def job(self, i: int, out: PassResult) -> int:
        tag, g, k = self.searches[i]
        return self._search(out, tag, g.program, g.target, k, expect=False)


class BakeryReach(Workload):
    name = "bakery-reach"
    hot = ("engine.check_reach", "engine.rel_apply", "engine.canonical_key",
           "engine.decode_key", "AbMachine.transitions_flat",
           "engine.concretize_witness", "engine.validate_witness",
           "engine.concrete_run_to_tso", "engine.replay", "tso.tso_step",
           "cli.main", "cli.check_reach", "cli.concretize_witness",
           "cli.parse_program_with_target", "dsl.parse_program_with_target",
           "generators.gen_bakery", "AbMachine.__init__")

    def setup(self) -> int:
        self.bakery = self.pkg.generators.gen_bakery(2)
        self._build(self.bakery.program, 4)
        # the CLI parses the file itself; parsing it here too builds the
        # machines it will look up, so every pass does the same work
        self.cli_checks = []
        for name in CORPUS_FLIP:
            path = self.root / "corpus" / name
            program, _ = self.pkg.dsl.parse_program_with_target(path.read_text())
            for k in CLI_KS:
                self._build(program, k)
                self.cli_checks.append((name, str(path), k))
        # job 0 is the bakery search with its witness, 1.. the CLI checks
        return 1 + len(self.cli_checks)

    def job(self, i: int, out: PassResult) -> int:
        if i == 0:
            g = self.bakery
            return self._search(out, "bakery(2) k=4", g.program, g.target, 4,
                                expect=True)
        name, path, k = self.cli_checks[i - 1]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(["check", path, "--k", str(k)])
        out.attempted += 1
        out.decided += code in (0, 1)
        want = 1 if k >= CORPUS_FLIP[name] else 0
        tag = f"cli check {name} --k {k}"
        if code != want:
            out.problems.append(f"{tag}: exit code {code}, expected {want}")
        m = re.search(r"\((\d+) states explored\)", buf.getvalue())
        if m is None:
            out.problems.append(f"{tag}: no state count in the output")
            return -1
        return int(m.group(1))


class OracleCb(Workload):
    name = "oracle-cb"
    hot = ("tso.cb_reach_bounded", "tso.tso_enabled", "tso.tso_step",
           "tso.program_index", "tso.replay", "generators.gen_bakery")

    def setup(self) -> int:
        self.g = self.pkg.generators.gen_bakery(2)
        self.pkg.model.program_index(self.g.program)
        self.bounds = self.pkg.tso.Bounds(2, 2, 60)
        return 1

    def job(self, i: int, out: PassResult) -> int:
        g = self.g
        v = self.pkg.tso.cb_reach_bounded(g.program, g.target, 4, self.bounds,
                                          max_states=4_000_000)
        if v.status != "reachable":
            out.problems.append(f"cb_reach_bounded: got {v.status}, expected reachable")
        else:
            self._check_tso_run(out, "cb_reach_bounded", g.program, g.target,
                                v.witness, 4)
        return out.record(v)


def _random_dfa(rng: random.Random, dsl, tag: str, n_states: int, n_letters: int):
    states = tuple(f"{tag}{i}" for i in range(n_states))
    alphabet = tuple("abc"[:n_letters])
    trs = []
    for s in states:
        for a in alphabet:
            if rng.random() < 0.85:
                trs.append((s, a, rng.choice(states)))
    finals = tuple(s for s in states if rng.random() < 0.4)
    return dsl.Dfa(states, alphabet, states[0], finals, tuple(trs))


def draw_dfa_instances(dsl, seed: int, count: int) -> list[list]:
    """The random DFA lists of acceptance criterion 4, by the test's recipe."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice((2, 2, 3))
        n_letters = rng.randrange(1, 4)
        sizes = []
        budget = 6
        for j in range(n):
            hi = min(4, budget - (n - 1 - j))
            sizes.append(rng.randrange(1, hi + 1))
            budget -= sizes[-1]
        out.append([_random_dfa(rng, dsl, f"d{j}_", sizes[j], n_letters)
                    for j in range(n)])
    return out


class DfaIntersection(Workload):
    name = "dfa-intersection"
    hot = ("engine.check_reach", "engine.rel_apply", "engine.canonical_key",
           "engine.decode_key", "AbMachine.transitions_flat",
           "AbMachine.__init__", "generators.gen_intersection")

    def setup(self) -> int:
        self.dfas = draw_dfa_instances(self.pkg.dsl, DFA_DRAW_SEED, DFA_INSTANCES)
        self.gens = [self.pkg.generators.gen_intersection(d) for d in self.dfas]
        for g in self.gens:
            self._build(g.program, g.k_hint)
        return len(self.gens)

    def known_answers(self) -> None:
        oracle = self.pkg.generators.dfa_intersection_oracle
        self.want = [oracle(d) for d in self.dfas]
        if any(self.want):
            self.hot += ("engine.concretize_witness", "engine.validate_witness",
                         "engine.concrete_run_to_tso", "engine.replay")

    def job(self, i: int, out: PassResult) -> int:
        g = self.gens[i]
        return self._search(out, f"dfa instance {i}", g.program, g.target,
                            g.k_hint, expect=self.want[i],
                            max_states=DFA_MAX_STATES)


WORKLOADS = {w.name: w for w in (BakeryExhaustive, BakeryReach, OracleCb,
                                 DfaIntersection)}
