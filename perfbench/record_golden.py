"""Record the cli workload's golden outputs from the package as it stands.

Run from the repository root:  python3 perfbench/record_golden.py
Only re-record when an output change is intended; the cli workload fails
every op whose stdout or written file differs from these bytes.
"""
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CLI_COMMANDS, GOLDEN, Cli, golden_name  # noqa: E402


def main() -> int:
    workdir = HERE / "_work" / "golden"
    cli = Cli()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    try:
        cli.prepare(workdir)
        for k, (argv, out) in enumerate(CLI_COMMANDS):
            code, stdout, stderr = cli.run_command(cli.argvs[k])
            if code != 0 or stderr:
                print(f"{' '.join(argv)}: exit {code}: {stderr}", file=sys.stderr)
                return 1
            (GOLDEN / golden_name(k, argv, "stdout")).write_bytes(stdout)
            if out:
                (GOLDEN / golden_name(k, argv, "file")).write_bytes(
                    (workdir / out).read_bytes()
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
