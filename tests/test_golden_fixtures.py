"""The recovered-table outputs must match the fixtures in tests/golden byte
for byte: the variation demo with its mismatch samples, and the full JSON
addition table of the README recover-add carrier."""
from pathlib import Path

import pytest

from fgl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "demo-variation.stdout": [
        "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
        "--n", "2", "--V", "2", "--json",
    ],
    "recover-add-table.stdout": [
        "recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
        "--degree", "4", "--n", "1", "--V", "2", "--table", "--json",
    ],
}


@pytest.mark.parametrize("fixture", sorted(COMMANDS))
def test_output_matches_fixture(capsysbinary, fixture):
    assert main(COMMANDS[fixture]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == (GOLDEN / fixture).read_bytes()
