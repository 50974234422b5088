"""The stage split of one variation op, against ROADMAP item 1's table.

    python3 perfbench/stage_split.py

Run from the repository root.  Only the structural functions are wrapped:
the traced run of run.py also wraps every ring and series kernel, which
inflates each stage by its own share of kernel calls.  Prints each stage's
inclusive seconds and share of the op, and the composition pairs that
verify_action checked and skipped.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402
from workloads import Variation  # noqa: E402

# (stage as ROADMAP names it, the spans whose inclusive times it sums)
STAGES = (
    ("verify_action (both actions)", ("laws.verify_action",)),
    ("build_addition_table (both)", ("recovery.build_addition_table",)),
    ("MonoidMorphism.verify (3 twists)", ("monoids.MonoidMorphism.verify",)),
    ("build_action", ("lubin_tate.build_action",)),
)


def main() -> int:
    workload = Variation()
    workload.setup(0, None)
    tracer = Tracer()
    tracer.install_structural()
    try:
        with tracer.span("op"):
            workload.op(0)
    finally:
        tracer.uninstall()
    total = tracer.totals["op"][1]
    rows = [(stage, sum(tracer.totals[n][1] for n in names))
            for stage, names in STAGES]
    # transport and compare: transport_structure plus variation_demo's own
    # time, which is where the twists' tables are compared
    rows.append(("transport and compare",
                 tracer.totals["recovery.transport_structure"][1]
                 + tracer.totals["recovery.variation_demo"][2]))
    for stage, seconds in rows:
        print(f"{stage:36s} {seconds:8.2f} s {seconds / total:6.1%}")
    print(f"{'op':36s} {total:8.2f} s")
    for name in ("laws.verify_action.pairs_checked",
                 "laws.verify_action.pairs_skipped"):
        calls = tracer.totals["laws.verify_action"][0]
        print(f"{name:36s} {tracer.counters[name]:8d} over {calls} actions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
