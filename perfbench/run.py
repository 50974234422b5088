"""Closed-loop benchmark of the fgl package: one client, one op after another.

    python3 perfbench/run.py --workload {variation,lawbuild,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Set-up (the package import and the input
generation) is timed in SETUP_REPEATS fresh interpreters, so that each one
pays for every module the package imports.  Then ops run for S seconds, and
every op's output is checked.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported.  The host's speed drifts by more than their
bounds, so times are taken relative to a fixed reference workload sampled
during the run (see loop.py): op times in reference units, each op's
seconds over the reference's time beside it, and set-up time in seconds
scaled to a host where the reference takes REF_NOMINAL_S.  The unscaled
seconds are reported too.  With --trace 1 untraced and traced ops
alternate, and the per-layer metrics are reported, with the tracing
overhead as the difference of the two medians.

The last line of stdout is one JSON object (correct, attempted, failed,
metrics); the lines before it list every figure by name with its unit.  Each
run also writes perfbench/results/BENCH_<workload>_seed<N>_trace<T>.json with
the machine, the Python version, the commit and every figure, and a traced
run writes its span records beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from loop import (  # noqa: E402
    Calibrator, in_reference_units, run_closed_loop, tail,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# Timed from a fresh interpreter's start to the inputs being ready.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]]().setup(int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""
# Set-up takes about a tenth of a second, too short to sample the reference
# beside it, so setup_s scales it by the run's median reference time
# against this: about that median on the 2-vCPU Xeon host the bounds were
# set on.
REF_NOMINAL_S = 0.0025


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int, workdir: Path) -> list:
    """Seconds of cold set-up in each of SETUP_REPEATS fresh interpreters.
    The first may also compile the package's bytecode; the median leaves
    that out."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(HERE), str(ROOT / "src"),
           name, str(seed), str(workdir)]
    return [
        float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def end_to_end(samples, ref_samples, setup_times) -> dict:
    n = samples.attempted
    units = in_reference_units(samples, ref_samples)
    ref_p50 = statistics.median(d for _, d in ref_samples)
    setup_p50 = statistics.median(setup_times)
    return {
        "setup_s": (setup_p50 * REF_NOMINAL_S / ref_p50, "s", len(setup_times)),
        "op_ref.p50": (statistics.median(units), "ref", n),
        "op_ref.tail": (tail(units), "ref", n),
        "ops_per_kref": (1000 * n / sum(units), "1/kref", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
        "ok_ratio": (1.0 - samples.fail_ratio, "ratio", n),
        "setup_wall_s": (setup_p50, "s", len(setup_times)),
        "op_s.p50": (statistics.median(samples.times), "s", n),
        "op_s.tail": (tail(samples.times), "s", n),
        "ops_per_s": (n / sum(samples.times), "1/s", n),
        "ref_s.p50": (ref_p50, "s", len(ref_samples)),
    }, {
        "op_ref_deciles": statistics.quantiles(units, n=10) if n > 1 else [],
        "op_s_deciles": statistics.quantiles(samples.times, n=10) if n > 1 else [],
    }


def traced_run(workload, seconds: float):
    """Untraced and traced ops alternate, so that both medians see the same
    host conditions; the tracer is installed and removed between ops."""
    tracer = Tracer()

    def prepare(i):
        if i % 2:
            tracer.install()
        else:
            tracer.uninstall()

    def op(i):
        if i % 2 == 0:
            workload.op(i)
            return
        tracer.op_id = i
        with tracer.span("op"):
            workload.op(i, tracer)

    try:
        samples = run_closed_loop(op, seconds, prepare=prepare, min_ops=2)
    finally:
        tracer.uninstall()
    base, traced = samples.times[0::2], samples.times[1::2]
    n = len(traced)
    figures = {k: (v, unit, n) for k, (v, unit) in tracer.layer_metrics(n).items()}
    traced_p50 = statistics.median(traced)
    base_p50 = statistics.median(base)
    figures.update({
        "trace.op_s.p50": (traced_p50, "s", n),
        "trace.untraced_op_s.p50": (base_p50, "s", len(base)),
        "trace.overhead_s": (traced_p50 - base_p50, "s", n),
        "trace.self_coverage": (tracer.self_coverage(sum(traced)), "ratio", n),
    })
    return samples, figures, tracer


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fgl").is_dir():
        sys.exit(f"no fgl package under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = measure_setup(args.workload, args.seed, workdir)
        workload.setup(args.seed, workdir)
        if args.trace:
            samples, figures, tracer = traced_run(workload, args.seconds)
            extra = {}
        else:
            with Calibrator() as calibrator:
                samples = run_closed_loop(workload.op, args.seconds,
                                          calibrator=calibrator)
            figures, extra = end_to_end(samples, calibrator.samples, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failures = samples.attempted, samples.failures

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "definition": json.loads((HERE / "workloads.json").read_text())[
            "workloads"][args.workload],
        "commit": commit(),
        "machine": machine(),
        "setup_times_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
        **extra,
        "metrics": {
            k: {"value": v, "unit": unit, "samples": n}
            for k, (v, unit, n) in figures.items()
        },
    }
    (results / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (results / f"SPANS_{stem}.json").write_text(json.dumps(tracer.spans_json()))

    for name, (value, unit, n) in sorted(figures.items()):
        print(f"{name:55s} {value:>16.6g} {unit:6s} n={n}")
    print(f"{'fail_ratio':55s} {len(failures) / attempted:>16.6g} ratio  "
          f"n={attempted}")
    for failure in failures[:5]:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": figures[m["name"]][0], "unit": figures[m["name"]][1]}
            for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
