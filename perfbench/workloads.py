"""The three workloads.  Each one imports what it needs in setup(), so that
set-up time includes the package import, and checks every op's output.

An op raises OpFailed (or whatever the package raised) when its output is
wrong; the closed loop counts that as a failed op.  Functions are always
looked up on their module at call time, so that a tracer's wrappers apply.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"


class OpFailed(Exception):
    pass


def check(cond: bool, message: str):
    if not cond:
        raise OpFailed(message)


class Variation:
    """One op: variation_demo(5, t^2-5, t^2-10, n=3, V=3) at its defaults."""

    name = "variation"
    # (twist, disagreements, flag_mismatches, agreements, both_flagged)
    EXPECTED = (
        ((1, 1), 35000, 0, 6400, 3750),
        ((1, 3), 34400, 0, 7000, 3750),
        ((1, 7), 26400, 0, 15000, 3750),
    )

    def setup(self, seed: int, workdir: Path):
        self.recovery = importlib.import_module("fgl.recovery")

    def op(self, i: int, tracer=None):
        report = self.recovery.variation_demo(5, (-5, 0, 1), (-10, 0, 1), n=3, V=3)
        check(report.carrier_size == 301, f"carrier {report.carrier_size}")
        check(report.multiplication_identical, "multiplication differs")
        check(report.all_variants_disagree, "a twist agrees everywhere")
        got = tuple(
            (v.twist, v.disagreements, v.flag_mismatches, v.agreements,
             v.both_flagged)
            for v in report.variants
        )
        check(got == self.EXPECTED, f"twist outcomes {got}")


class Lawbuild:
    """One op: criterion 1's trial on a seeded random degree-8 logarithm."""

    name = "lawbuild"
    POOL = 500

    def setup(self, seed: int, workdir: Path):
        self.laws = importlib.import_module("fgl.laws")
        rings = importlib.import_module("fgl.rings")
        self.series = importlib.import_module("fgl.series")
        self.Q = rings.RationalField()
        rng = random.Random(seed)
        self.trials = []
        for _ in range(self.POOL):
            terms = {(1,): Fraction(1)}
            for k in range(2, 9):
                terms[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            self.trials.append((terms, rng.randint(-6, 6), rng.randint(-6, 6)))

    def op(self, i: int, tracer=None):
        laws, Q = self.laws, self.Q
        terms, a, b = self.trials[i % self.POOL]
        log = self.series.TruncatedSeries(Q, ("T",), 8, terms)
        law, exp = laws.from_logarithm(log)
        check(law.report.all_pass, "axioms fail")
        ea = laws.endomorphism_from_logarithm(law, log, exp, Q.el(a))
        eb = laws.endomorphism_from_logarithm(law, log, exp, Q.el(b))
        ea.verify()
        eab = laws.endomorphism_from_logarithm(law, log, exp, Q.el(a * b))
        check(ea.series.substitute_single(eb.series).terms == eab.series.terms,
              f"[{a}]o[{b}] != [{a * b}]")
        esum = laws.endomorphism_from_logarithm(law, log, exp, Q.el(a + b))
        added = law.F.substitute({"x": ea.series, "y": eb.series})
        check(added.terms == esum.series.terms, f"F([{a}], [{b}]) != [{a + b}]")


# The README's commands, in an order where each file is written before it is
# read.  Entries: (argv, file the command writes with --out, or None).
CLI_COMMANDS = (
    (["from-log", "--series", "T - 1/2*T^2 + 1/3*T^3 - 1/4*T^4", "--degree", "4"],
     None),
    (["lubin-tate", "--p", "5", "--precision", "8", "--preset", "multiplicative",
      "--degree", "4", "--elements", "2,3"], None),
    (["lubin-tate", "--p", "5", "--precision", "6", "--eisenstein", "t^2-5",
      "--preset", "standard", "--degree", "4", "--elements", "2,3", "--json",
      "--out", "bundle.json"], "bundle.json"),
    (["lubin-tate", "--p", "5", "--precision", "8", "--preset", "multiplicative",
      "--degree", "4", "--as-free", "m=2", "--json", "--out", "action.json"],
     "action.json"),
    (["check", "--bundle", "bundle.json"], None),
    (["log", "--bundle", "bundle.json"], None),
    (["recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
      "--degree", "4", "--n", "1", "--V", "2", "--a", "2", "--b", "3"], None),
    (["recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
      "--degree", "4", "--n", "1", "--V", "2", "--table"], None),
    (["universal", "--monoid", "m.json", "--degree", "2"], None),
    (["universal", "--monoid", "m2.json", "--degree", "4"], None),
    (["specialize", "--monoid", "m.json", "--degree", "2", "--images",
      "images.json"], None),
    (["classify", "--monoid", "m.json", "--degree", "4", "--bundle", "action.json",
      "--json"], None),
)
CLI_INPUTS = {
    "m.json": {"kind": "free", "generators": ["m"]},
    "m2.json": {"kind": "free", "generators": ["m", "n"]},
    "images.json": {"m": 3, "c_1_1": 1, "d_m_2": 3},
}
CLI_FILES = {name for _, name in CLI_COMMANDS if name} | set(CLI_INPUTS)


def golden_name(step: int, argv: list, suffix: str) -> str:
    return f"{step:02d}-{argv[0]}.{suffix}"


class Cli:
    """One op: every README command once, through fgl.cli.main in process."""

    name = "cli"

    def setup(self, seed: int, workdir: Path):
        self.prepare(workdir)
        self.golden = [
            ((GOLDEN / golden_name(k, argv, "stdout")).read_bytes(),
             (GOLDEN / golden_name(k, argv, "file")).read_bytes() if out else None)
            for k, (argv, out) in enumerate(CLI_COMMANDS)
        ]

    def prepare(self, workdir: Path):
        """Import the cli and write the input files the commands read."""
        self.cli = importlib.import_module("fgl.cli")
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        for name, obj in CLI_INPUTS.items():
            (workdir / name).write_text(json.dumps(obj))
        self.argvs = [
            [str(workdir / a) if a in CLI_FILES else a for a in argv]
            for argv, _ in CLI_COMMANDS
        ]

    def run_command(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue().encode(), err.getvalue()

    def op(self, i: int, tracer=None):
        for k, (argv, out) in enumerate(CLI_COMMANDS):
            if tracer is None:
                code, stdout, stderr = self.run_command(self.argvs[k])
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code, stdout, stderr = self.run_command(self.argvs[k])
                tracer.counters["cli.stdout_bytes"] += len(stdout)
            where = " ".join(argv)
            check(code == 0 and not stderr, f"{where}: exit {code}, {stderr!r}")
            want_stdout, want_file = self.golden[k]
            check(stdout == want_stdout, f"{where}: stdout differs from golden")
            if out:
                got = (self.workdir / out).read_bytes()
                check(got == want_file, f"{where}: {out} differs from golden")


WORKLOADS = {w.name: w for w in (Variation, Lawbuild, Cli)}
