"""CLI outputs must match the fixtures in tests/golden byte for byte: the
variation demo with its mismatch samples, at N = 2 on Z_5[sqrt 5] (n = 2,
criterion 5's n = 3, V = 3, and n = 5, V = 3, whose 7,501 classes need
FGL_BUDGET=10), criterion 5's carrier again at N = 5 = q, and at N = 4 >=
q on Z_3[sqrt 3]; the full JSON addition table of the README recover-add
carrier; the table of a Z_3 carrier at N = 4 >= q; the table of
Z_5[sqrt 5] at N = 4 under f = pi*T + pi*T^2 + T^5, whose law and
endomorphisms have terms above degree 1; and the exhaustive action report
of `check` on a Z_5 truncation bundle (n=1, V=2, N=4), with its 48 checked
and 16 skipped pairs.  The three fixtures at N >= q were recorded while
those tables confirmed every pair on its own, so they pin the tables that
build_addition_table reads off one certified row to the every-pair ones."""
import json
from pathlib import Path

import pytest

from fgl.cli import main
from fgl.lubin_tate import build_action, build_fgl, standard_datum
from fgl.monoids import padic_truncation_of
from fgl.rings import PadicIntegers

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "demo-variation.stdout": [
        "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
        "--n", "2", "--V", "2", "--json",
    ],
    "demo-variation-n3.stdout": [
        "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
        "--n", "3", "--V", "3", "--json",
    ],
    "demo-variation-n3-N5.stdout": [
        "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
        "--n", "3", "--V", "3", "--degree", "5", "--json",
    ],
    "demo-variation-n5.stdout": [
        "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
        "--n", "5", "--V", "3", "--json",
    ],
    "demo-variation-p3.stdout": [
        "demo-variation", "--p", "3", "--e1", "t^2-3", "--e2", "t^2-6",
        "--n", "2", "--V", "2", "--degree", "4", "--json",
    ],
    "recover-add-table.stdout": [
        "recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
        "--degree", "4", "--n", "1", "--V", "2", "--table", "--json",
    ],
    "recover-add-table-p3.stdout": [
        "recover-add", "--p", "3", "--precision", "6", "--preset", "standard",
        "--degree", "4", "--n", "2", "--V", "2", "--table", "--json",
    ],
    "recover-add-table-nonadditive.stdout": [
        "recover-add", "--p", "5", "--precision", "9", "--eisenstein", "t^2-5",
        "--series", "pi*T + pi*T^2 + T^5", "--degree", "4", "--n", "2", "--V", "2",
        "--table", "--json",
    ],
    "check-truncation.stdout": [
        "check", "--bundle", str(GOLDEN / "check-truncation.json"), "--json",
    ],
}
ENV = {"demo-variation-n5.stdout": {"FGL_BUDGET": "10"}}


@pytest.mark.parametrize("fixture", sorted(COMMANDS))
def test_output_matches_fixture(capsysbinary, monkeypatch, fixture):
    for name, value in ENV.get(fixture, {}).items():
        monkeypatch.setenv(name, value)
    assert main(COMMANDS[fixture]) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == (GOLDEN / fixture).read_bytes()


def test_truncation_bundle_matches_fixture():
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, degree=4)
    action = build_action(d, build_fgl(d, 4), monoid=padic_truncation_of(Z5, 1, 2))
    text = json.dumps(action.to_bundle(), sort_keys=True, indent=1) + "\n"
    assert text == (GOLDEN / "check-truncation.json").read_text()
