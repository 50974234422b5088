"""Every README command must reproduce the recorded golden outputs byte for
byte: the benchmark's cli workload replayed once, reading its command list
and perfbench/golden/cli without changing either."""
import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_commands_match_golden_outputs(tmp_path):
    cli = _workloads().Cli()
    cli.setup(seed=0, workdir=tmp_path)
    cli.op(0)  # raises OpFailed naming the first command that differs
