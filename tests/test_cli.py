import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fgl.cli import main
from fgl.recovery import RecoveryError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


TRUNCATION = Path(__file__).resolve().parent / "golden" / "check-truncation.json"


def test_from_log_additive(capsys):
    code, out, err = run(capsys, "from-log", "--series", "T", "--degree", "4")
    assert (code, err) == (0, "")
    assert out == "F = x + y\nexp = T\n"


def test_from_log_multiplicative(capsys):
    log = "T - 1/2*T^2 + 1/3*T^3 - 1/4*T^4"
    code, out, err = run(capsys, "from-log", "--series", log, "--degree", "4")
    assert code == 0
    assert out == "F = x + y + x*y\nexp = T + 1/2*T^2 + 1/6*T^3 + 1/24*T^4\n"
    code, out, err = run(
        capsys, "from-log", "--series", log, "--degree", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    terms = {tuple(t["exp"]): t["coeff"] for t in payload["law"]["F"]["terms"]}
    assert terms == {(1, 0): "1", (0, 1): "1", (1, 1): "1"}
    assert payload["law"]["axioms"]["all_pass"]


def test_lubin_tate_multiplicative_text(capsys):
    code, out, err = run(
        capsys, "lubin-tate", "--p", "5", "--precision", "8",
        "--preset", "multiplicative", "--degree", "4", "--elements", "2,3",
    )
    assert (code, err) == (0, "")
    assert out == (
        "F = (1 + O(5^8))*x + (1 + O(5^8))*y + (1 + O(5^8))*x*y\n"
        "[1] = (1 + O(5^8))*T\n"
        "[2] = (2 + O(5^8))*T + (1 + O(5^8))*T^2\n"
        "[3] = (3 + O(5^8))*T + (3 + O(5^8))*T^2 + (1 + O(5^8))*T^3\n"
    )


def test_lubin_tate_eisenstein_byte_stable(capsys, tmp_path):
    argv = [
        "lubin-tate", "--p", "5", "--precision", "6", "--eisenstein", "t^2-5",
        "--preset", "standard", "--degree", "4", "--elements", "2,3", "--json",
    ]
    code1, _, _ = run(capsys, *argv, "--out", str(tmp_path / "one.json"))
    code2, _, _ = run(capsys, *argv, "--out", str(tmp_path / "two.json"))
    assert code1 == code2 == 0
    first = (tmp_path / "one.json").read_bytes()
    assert first == (tmp_path / "two.json").read_bytes()
    assert first

    code, out, err = run(
        capsys, "check", "--bundle", str(tmp_path / "one.json")
    )
    assert code == 0
    assert out == "ok: axioms and action identities hold\n"


def test_check_corrupted_linear_coefficient(capsys, tmp_path):
    run(
        capsys, "from-log", "--series", "T - 1/2*T^2 + 1/3*T^3", "--degree",
        "3", "--json", "--out", str(tmp_path / "good.json"),
    )
    law = json.loads((tmp_path / "good.json").read_text())["law"]
    for term in law["F"]["terms"]:
        if term["exp"] == [1, 0]:
            term["coeff"] = "2"
    bad = write_json(tmp_path / "bad.json", law)

    code, out, err = run(capsys, "check", "--bundle", bad, "--json")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "axioms"
    failing = {c["name"] for c in error["report"]["checks"] if not c["ok"]}
    assert "linear_shape" in failing


# the classes of TRUNCATION's carrier (Z_5, n = 1, V = 2) but BOTTOM
CLASSES = ["0:1", "0:2", "0:3", "0:4", "1:1", "1:2", "1:3", "1:4"]


def _truncation_bundle_with(kept):
    bundle = json.loads(TRUNCATION.read_text())
    bundle["endomorphisms"] = [e for e in bundle["endomorphisms"]
                               if e["element"] in kept]
    return bundle


# the checks follow from the monoid, so a bundle that drops its tolerance
# key gets them all the same
@pytest.mark.parametrize("tolerance_key", ["kept", "removed"])
@pytest.mark.parametrize("kept, unassigned", [
    ([c for c in CLASSES if c != "1:2"], ["1:2"]),
    (["0:1"], CLASSES[1:]),
], ids=["all-but-1:2", "identity-only"])
def test_check_refuses_a_truncation_bundle_with_an_unassigned_class(
        capsys, tmp_path, kept, unassigned, tolerance_key):
    bundle = _truncation_bundle_with(kept)
    if tolerance_key == "removed":
        del bundle["tolerance"]
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "partial.json", bundle), "--json")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "action"
    assert [(v["kind"], v["where"]) for v in error["report"]["violations"]] == [
        ("unassigned", c) for c in unassigned]


def test_check_refuses_a_tolerance_key_that_disagrees_with_the_monoid(capsys, tmp_path):
    bundle = _truncation_bundle_with(["0:1"])
    bundle["tolerance"] = "exact"
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "exact.json", bundle))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed bundle: tolerance 'exact' disagrees")


def test_log_blocked_at_degree_p(capsys, tmp_path):
    run(
        capsys, "lubin-tate", "--p", "5", "--precision", "8", "--preset",
        "multiplicative", "--degree", "6", "--json", "--out",
        str(tmp_path / "mult.json"),
    )
    code, out, err = run(
        capsys, "log", "--bundle", str(tmp_path / "mult.json"), "--json"
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {
            "degree": 5,
            "denominator": 5,
            "kind": "division",
            "message": "division by 5 at degree 5 is not defined here",
        }
    }


def test_log_of_rational_law(capsys, tmp_path):
    run(
        capsys, "from-log", "--series", "T - 1/2*T^2 + 1/3*T^3", "--degree",
        "3", "--json", "--out", str(tmp_path / "law.json"),
    )
    code, out, err = run(capsys, "log", "--bundle", str(tmp_path / "law.json"))
    assert code == 0
    assert out == "log = T - 1/2*T^2 + 1/3*T^3\n"


def test_parse_error_reports_position(capsys):
    code, out, err = run(
        capsys, "from-log", "--series", "T + + T^2", "--degree", "4", "--json"
    )
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "parse"
    assert error["position"] == 4


def test_recover_add_truncation_classes(capsys):
    base = [
        "recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
        "--degree", "4", "--n", "1", "--V", "2",
    ]
    code, out, err = run(capsys, *base, "--a", "2", "--b", "3")
    assert (code, out) == (0, "0:2 + 0:3 = 1:1\n")
    code, out, err = run(capsys, *base, "--a", "5", "--b", "20")
    assert (code, out) == (0, "1:1 + 1:4 = !cap\n")


def test_recover_add_table(capsys):
    base = [
        "recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
        "--degree", "4", "--n", "1", "--V", "2", "--table",
    ]
    code, out, err = run(capsys, *base)
    assert code == 0
    assert out == (
        "       0:1  0:2  0:3  0:4  1:1  1:2  1:3  1:4\n"
        " 0:1 |  0:2  0:3  0:4 1:1?  0:1  0:1  0:1  0:1\n"
        " 0:2 |  0:3  0:4 1:1?  0:1  0:2  0:2  0:2  0:2\n"
        " 0:3 |  0:4 1:1?  0:1  0:2  0:3  0:3  0:3  0:3\n"
        " 0:4 | 1:1?  0:1  0:2  0:3  0:4  0:4  0:4  0:4\n"
        " 1:1 |  0:1  0:2  0:3  0:4  1:2  1:3  1:4 !cap\n"
        " 1:2 |  0:1  0:2  0:3  0:4  1:3  1:4 !cap  1:1\n"
        " 1:3 |  0:1  0:2  0:3  0:4  1:4 !cap  1:1  1:2\n"
        " 1:4 |  0:1  0:2  0:3  0:4 !cap  1:1  1:2  1:3\n"
        "flags: cap=4 precision=4\n"
    )
    code, out, err = run(capsys, *base, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"] == {"cap": 4, "precision": 4}
    assert payload["elements"] == [
        "0:1", "0:2", "0:3", "0:4", "1:1", "1:2", "1:3", "1:4",
    ]


def test_recover_add_table_refuses_an_action_that_fails_verification(capsys, monkeypatch):
    # [1:u] := [1:2u], moved along pi -> 2pi: an action that build_action
    # did not build, which the table refuses and the command exits 1 on;
    # the every-pair oracle reports the linear coefficient of [1:1]
    from fgl import cli
    from fgl.laws import MonoidAction
    from oracles import REFUSED, exhaustive_table

    build = cli.build_action
    mutants = []

    def relabelled(*args, **kwargs):
        action = build(*args, **kwargs)
        moved = {(1, u): action.assignment[(1, 2 * u % 5)] for u in range(1, 5)}
        mutants.append(MonoidAction(action.monoid, action.law,
                                    {**action.assignment, **moved}))
        return mutants[-1]

    monkeypatch.setattr(cli, "build_action", relabelled)
    code, out, err = run(
        capsys, "recover-add", "--p", "5", "--precision", "6", "--preset",
        "standard", "--degree", "4", "--n", "1", "--V", "2", "--table", "--json",
    )
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "recovery"
    assert error["message"].startswith(REFUSED)
    with pytest.raises(RecoveryError, match="action verification failed: ") as exc:
        exhaustive_table(mutants[0])
    assert "'kind': 'linear_class', 'where': '1:1'" in str(exc.value)


# check-truncation.json with [0:2] = 2T moved to 2T + T^2: the endomorphism
# law fails at xy, and eleven composition rows through 0:2 fail at T^2.  The
# stderr was recorded before the law checks stopped building composed
# series.
VIOLATIONS = Path(__file__).resolve().parent / "golden" / "check-violations.json"


def test_check_reports_every_violation_of_a_perturbed_bundle(capsysbinary):
    assert main(["check", "--bundle", str(VIOLATIONS), "--json"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == VIOLATIONS.with_suffix(".stderr").read_bytes()


# A law over Q at degree 3 that fails all five axioms, with negative and
# fractional deltas.  The stderr was recorded before the axiom checks
# stopped building difference series.
AXIOMS = Path(__file__).resolve().parent / "golden" / "check-axioms.json"


def test_check_reports_every_failing_axiom_of_a_law(capsysbinary):
    assert main(["check", "--bundle", str(AXIOMS), "--json"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == AXIOMS.with_suffix(".stderr").read_bytes()


# F = x + y + x^2*y + x*y^2 + 1/2*x^2*y^2 over Q at degree 4: commutative,
# so its associativity check reads the right side off the left, and not
# associative, failing at x*y*z^2 with delta -1.  The stderr was recorded
# while both sides were still composed.
COMMUTATIVE = Path(__file__).resolve().parent / "golden" / "check-commutative.json"


def test_check_reports_the_associativity_of_a_commutative_law(capsysbinary):
    assert main(["check", "--bundle", str(COMMUTATIVE), "--json"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == COMMUTATIVE.with_suffix(".stderr").read_bytes()


def _specialized_truncation_action(capsys, tmp_path, m0_2):
    """run specialize on Z_3 mod 3 (classes 0:1, 0:2, bot) with [0:2] = m0_2*T,
    [bot] = 0 and F = x + y; the exit code and the bundle's action, if any."""
    monoid = write_json(tmp_path / "m.json", {
        "kind": "padic_truncation", "ring": {"kind": "padic", "p": 3, "precision": 4},
        "n": 1, "V": 1})
    images = write_json(tmp_path / "images.json", {
        "m0_2": m0_2, "bot": 0, "c_1_1": 0, "d_m0_2_2": 0, "d_bot_2": 0})
    code, out, err = run(capsys, "specialize", "--monoid", monoid, "--degree", "2",
                         "--images", images, "--p", "3", "--precision", "4", "--json")
    return code, json.loads(out)["action"] if code == 0 else json.loads(err)


def _check_action(capsys, tmp_path, action):
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "action.json", action), "--json")
    return code, json.loads(out)["action"] if code == 0 else json.loads(err)["error"]


def test_check_verifies_the_bottom_of_a_specialized_truncation_action(capsys,
                                                                      tmp_path):
    # specialize assigns BOTTOM an endomorphism: its law is checked, and the
    # compositions landing on it, which have no class precision, exactly
    code, action = _specialized_truncation_action(capsys, tmp_path, -1)
    assert code == 0
    assert action["tolerance"] == "truncation"
    assert {e["element"] for e in action["endomorphisms"]} == {"0:1", "0:2", "bot"}
    assert _check_action(capsys, tmp_path, action) == (0, {
        "ok": True, "checked_pairs": 9, "skipped_pairs": 0, "violations": []})


def test_check_refuses_a_specialized_truncation_action_with_an_edited_bottom(
        capsys, tmp_path):
    # [bot] := -T^2 is no endomorphism of x + y, and [0:2] o [bot] = T^2
    code, action = _specialized_truncation_action(capsys, tmp_path, -1)
    assert code == 0
    bottom = _series_of(action, "bot")
    bottom["terms"] = [{**term, "exp": [2]} for term in _series_of(action, "0:2")["terms"]]
    code, error = _check_action(capsys, tmp_path, action)
    assert code == 1
    assert [(v["kind"], v["where"]) for v in error["report"]["violations"]] == [
        ("endomorphism_law", "bot"), ("composition", "0:2*bot=bot"),
        ("composition", "bot*bot=bot")]


def test_specialize_and_check_refuse_a_class_acting_outside_its_class(capsys,
                                                                      tmp_path):
    # [0:2] = T kills the ideal and is multiplicative, but a class acts
    # through a series whose linear coefficient lies in it, and 1 is in 0:1
    expected = [("linear_class", "0:2", "0:1")]
    code, err = _specialized_truncation_action(capsys, tmp_path, 1)
    assert code == 1
    assert [(v["kind"], v["where"], v["delta"])
            for v in err["error"]["report"]["violations"]] == expected
    code, action = _specialized_truncation_action(capsys, tmp_path, -1)
    assert code == 0
    _series_of(action, "0:2")["terms"] = _series_of(action, "0:1")["terms"]
    code, error = _check_action(capsys, tmp_path, action)
    assert code == 1
    assert [(v["kind"], v["where"], v["delta"])
            for v in error["report"]["violations"]] == expected


def test_log_reports_a_law_that_fails_its_axioms_as_check_does(capsysbinary):
    assert main(["log", "--bundle", str(AXIOMS), "--json"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == AXIOMS.with_suffix(".stderr").read_bytes()


def test_classify_reports_a_law_that_fails_its_axioms_as_check_does(capsys, tmp_path):
    monoid = write_json(tmp_path / "m.json", {"kind": "free", "generators": ["m"]})
    good = tmp_path / "action.json"
    assert run(capsys, "lubin-tate", "--p", "5", "--precision", "8", "--preset",
               "multiplicative", "--degree", "4", "--as-free", "m=2", "--json",
               "--out", str(good))[0] == 0
    bundle = json.loads(good.read_text())
    next(t for t in bundle["law"]["F"]["terms"]
         if t["exp"] == [1, 0])["coeff"]["residue"] = "2"
    bad = write_json(tmp_path / "bad.json", bundle)
    code, out, err = run(capsys, "classify", "--monoid", monoid, "--degree", "4",
                         "--bundle", bad, "--json")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert (error["kind"], error["message"]) == ("axioms", "law axioms fail")
    assert not error["report"]["all_pass"]
    assert run(capsys, "check", "--bundle", bad, "--json") == (1, "", err)


def _series_of(bundle, element):
    return next(e["series"] for e in bundle["endomorphisms"] if e["element"] == element)


@pytest.mark.parametrize("where, exp, message", [
    ("0:2", [2, 0], "exponent arity mismatch"),
    ("0:2", [-1], "negative exponent"),
    ("0:2", [-2], "negative exponent"),
    ("law", [-1, 2], "negative exponent"),
])
def test_check_refuses_a_bundle_series_with_a_bad_exponent(capsys, tmp_path,
                                                          where, exp, message):
    bundle = json.loads(TRUNCATION.read_text())
    series = bundle["law"]["F"] if where == "law" else _series_of(bundle, where)
    series["terms"][0]["exp"] = exp
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "bad.json", bundle))
    assert (code, out) == (2, "")
    assert err == f"error: malformed bundle: {message}\n"


@pytest.mark.parametrize("field, value", [("vars", ["x"])])
def test_check_accepts_an_identity_written_otherwise(capsys, tmp_path, field, value):
    # [0:1] = T under another variable name
    bundle = json.loads(TRUNCATION.read_text())
    _series_of(bundle, "0:1")[field] = value
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "identity.json", bundle))
    assert (code, out, err) == (0, "ok: axioms and action identities hold\n", "")


@pytest.mark.parametrize("element, N", [("0:1", 3), ("0:2", 3), ("0:2", 6)])
def test_check_refuses_an_endomorphism_at_another_degree(capsys, tmp_path, element, N):
    # the law is at degree 4; an endomorphism above or below it is malformed
    bundle = json.loads(TRUNCATION.read_text())
    _series_of(bundle, element)["N"] = N
    code, out, err = run(capsys, "check", "--bundle",
                         write_json(tmp_path / "degree.json", bundle))
    assert (code, out) == (2, "")
    assert err == (f"error: malformed bundle: endomorphism truncated at degree {N}, "
                   "its law at degree 4\n")


def test_recover_add_window_mode(capsys):
    base = [
        "recover-add", "--p", "5", "--precision", "6", "--preset",
        "multiplicative", "--degree", "4",
    ]
    code, out, err = run(
        capsys, *base, "--elements", "2,3,5", "--a", "2", "--b", "3"
    )
    assert (code, out) == (0, "2 + 3 = 5\n")
    code, out, err = run(
        capsys, *base, "--elements", "2,3", "--a", "3", "--b", "3"
    )
    assert code == 1
    assert err == "error: sum lies outside the listed window\n"


def test_demo_variation_shallow(capsys):
    code, out, err = run(
        capsys, "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2",
        "t^2-10", "--n", "2", "--V", "2",
    )
    assert (code, err) == (0, "")
    assert out == (
        "p=5 rings t:t^2-5 vs t:t^2-10 n=2 V=2\n"
        "carrier size 41, precision 7\n"
        "multiplication identical: True\n"
        "twist (1,): 0 addition disagreements, 720 agreements, 0 flag mismatches\n"
        "twist (3,): 720 addition disagreements, 0 agreements, 0 flag mismatches\n"
        "twist (7,): 720 addition disagreements, 0 agreements, 0 flag mismatches\n"
        "all variants disagree: False\n"
    )


def test_universal_text_and_cas(capsys, tmp_path):
    monoid = write_json(tmp_path / "m.json", {"kind": "free", "generators": ["m"]})
    cas = tmp_path / "relations.txt"
    code, out, err = run(
        capsys, "universal", "--monoid", monoid, "--degree", "2",
        "--cas", str(cas),
    )
    assert code == 0
    assert out == (
        "variables: m, c_1_1, d_m_2\n"
        "relations (1 nonzero of 14):\n"
        "  Q_m_1_1: -m^2*c_1_1 + m*c_1_1 + 2*d_m_2\n"
    )
    assert cas.read_text() == "-m^2*c_1_1 + m*c_1_1 + 2*d_m_2\n"

    code, out, err = run(
        capsys, "universal", "--monoid", monoid, "--degree", "2", "--json"
    )
    payload = json.loads(out)
    assert payload["variables"] == ["m", "c_1_1", "d_m_2"]
    assert len(payload["ideal"]) == 14


@pytest.mark.parametrize("subcommand, extra", [
    ("universal", []),
    ("specialize", ["--images", "images.json"]),
    ("classify", ["--bundle", str(TRUNCATION)]),
], ids=["universal", "specialize", "classify"])
def test_a_window_that_is_not_closed_exits_2(capsys, tmp_path, monkeypatch,
                                             subcommand, extra):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "images.json", {})
    ring = {"kind": "padic", "p": 5, "precision": 4}
    monoid = write_json(tmp_path / "w.json", {"kind": "ring_subset", "ring": ring,
                                              "elements": [{"residue": str(a), "precision": 4}
                                                           for a in (2, 3)]})
    code, out, err = run(capsys, subcommand, "--monoid", monoid, "--degree", "2", *extra)
    assert (code, out) == (2, "")
    assert err == "error: monoid not closed: 2*2 = 4 is not listed\n"


def test_specialize_pass_and_fail(capsys, tmp_path):
    monoid = write_json(tmp_path / "m.json", {"kind": "free", "generators": ["m"]})
    good = write_json(tmp_path / "good.json", {"m": 3, "c_1_1": 1, "d_m_2": 3})
    code, out, err = run(
        capsys, "specialize", "--monoid", monoid, "--degree", "2",
        "--images", good,
    )
    assert (code, err) == (0, "")
    assert out == "F = x + y + x*y\n[m] = 3*T + 3*T^2\n"

    bad = write_json(tmp_path / "bad.json", {"m": 3, "c_1_1": 1, "d_m_2": 0})
    code, out, err = run(
        capsys, "specialize", "--monoid", monoid, "--degree", "2",
        "--images", bad, "--json",
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {
            "kind": "ideal-not-killed",
            "message": "relation Q_m_1_1 maps to -6, not 0",
            "relation": "Q_m_1_1",
            "value": "-6",
        }
    }


def test_classify_stored_action(capsys, tmp_path):
    monoid = write_json(tmp_path / "m.json", {"kind": "free", "generators": ["m"]})
    bundle = tmp_path / "action.json"
    code, _, _ = run(
        capsys, "lubin-tate", "--p", "5", "--precision", "8", "--preset",
        "multiplicative", "--degree", "4", "--as-free", "m=2", "--json",
        "--out", str(bundle),
    )
    assert code == 0
    code, out, err = run(
        capsys, "classify", "--monoid", monoid, "--degree", "4",
        "--bundle", str(bundle), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["images"] == {
        "m": "2 + O(5^8)", "c_1_1": "1 + O(5^8)", "c_1_2": "0 + O(5^8)",
        "c_2_1": "0 + O(5^8)", "c_1_3": "0 + O(5^8)", "c_2_2": "0 + O(5^8)",
        "c_3_1": "0 + O(5^8)", "d_m_2": "1 + O(5^8)", "d_m_3": "0 + O(5^8)",
        "d_m_4": "0 + O(5^8)",
    }
    assert payload["verification"] == {"relations_checked": 53, "all_zero": True}


def test_classify_refuses_a_truncation_bundle_without_bottom_up_front(capsys, tmp_path,
                                                                      monkeypatch):
    # check-truncation.json assigns the absorbing class bot no endomorphism,
    # so it has no image to read; the bundle is refused before any
    # presentation is built
    from fgl import cli

    monkeypatch.setattr(cli, "generate_presentation", None)
    monoid = write_json(tmp_path / "m.json", json.loads(TRUNCATION.read_text())["monoid"])
    code, out, err = run(capsys, "classify", "--monoid", monoid, "--degree", "2",
                         "--bundle", str(TRUNCATION), "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "kind": "monoid",
        "message": "classify reads an image for every listed element, and the "
                   "bundle assigns the absorbing class bot none",
    }}


def test_classify_reads_a_specialized_truncation_bundle(capsys, tmp_path):
    # specialize assigns bot an endomorphism, so the specialize -> classify
    # round trip reads every image back
    code, action = _specialized_truncation_action(capsys, tmp_path, -1)
    assert code == 0
    monoid = write_json(tmp_path / "m2.json", action["monoid"])
    code, out, err = run(capsys, "classify", "--monoid", monoid, "--degree", "2",
                         "--bundle", write_json(tmp_path / "action.json", action),
                         "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["images"] == {
        "m0_2": "80 + O(3^4)", "bot": "0 + O(3^4)", "c_1_1": "0 + O(3^4)",
        "d_m0_2_2": "0 + O(3^4)", "d_bot_2": "0 + O(3^4)"}


def test_bad_usage_exits_2(capsys):
    assert run(capsys, "from-log", "--degree", "4")[0] == 2
    assert run(capsys)[0] == 2
    code, out, err = run(
        capsys, "lubin-tate", "--p", "5", "--preset", "standard",
        "--degree", "4",
    )
    assert code == 2
    assert err == "error: --precision is required with --p\n"


def test_demo_variation_json_is_byte_stable(capsys):
    argv = ("demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
            "--n", "1", "--V", "2", "--json")
    first = run(capsys, *argv)
    assert first[0] == 0 and first[2] == ""
    assert run(capsys, *argv) == first
    assert "seconds" not in json.loads(first[1])


@pytest.mark.parametrize("count", ["0", "-1"])
def test_demo_variation_refuses_no_variants(capsys, count):
    code, out, err = run(
        capsys, "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2",
        "t^2-10", "--n", "1", "--V", "2", "--variants", count,
    )
    assert (code, out) == (2, "")
    assert err == f"error: --variants must be at least 1, got {count}\n"


@pytest.mark.parametrize("flag", ["--out", "--cas"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, flag):
    monoid = write_json(tmp_path / "m.json", {"kind": "free", "generators": ["m"]})
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "universal", "--monoid", monoid, "--degree", "2", flag, str(target)
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_recover_add_refuses_carrier_beyond_precision(capsys):
    # at precision 3 the class 3:1 would lift to 5^3 = 0 and add wrongly
    code, out, err = run(
        capsys, "recover-add", "--p", "5", "--precision", "3", "--preset",
        "standard", "--degree", "4", "--n", "1", "--V", "4", "--table",
    )
    assert (code, out) == (2, "")
    assert "need at least 4" in err


@pytest.mark.parametrize("argv", [
    ("lubin-tate", "--p", "5", "--precision", "6", "--preset", "standard"),
    ("recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
     "--n", "1", "--V", "2", "--table"),
    ("demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
     "--n", "1", "--V", "2"),
])
def test_degree_below_one_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--degree", "0")
    assert (code, out) == (2, "")
    assert err == "error: --degree must be at least 1, got 0\n"


_FROM_LOG = ("from-log", "--series", "T - 1/2*T^2", "--degree", "2")
_RECOVER = ("recover-add", "--p", "5", "--precision", "6", "--preset",
            "standard", "--degree", "4")


@pytest.mark.parametrize("argv, message", [
    (("recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
      "--degree", "4", "--n", "1", "--V", "2", "--a", "2", "--b", "3",
      "--elements", "2"),
     "pass --elements or --n/--V, not both"),
    (("recover-add", "--p", "5", "--precision", "6", "--preset", "standard",
      "--degree", "4", "--V", "2", "--elements", "2,3", "--a", "2", "--b", "3"),
     "pass --n and --V together"),
    (("lubin-tate", "--p", "5", "--precision", "8", "--preset",
      "multiplicative", "--degree", "4", "--as-free", "m=2", "--elements", "3"),
     "pass --elements or --as-free, not both"),
    (_RECOVER + ("--n", "1", "--V", "2", "--table", "--a", "2", "--b", "3"),
     "--table needs --n/--V and no --a/--b"),
    (_RECOVER + ("--n", "1", "--V", "2", "--table", "--b", "3"),
     "--table needs --n/--V and no --a/--b"),
    # window mode has no table
    (_RECOVER + ("--elements", "2,3,5", "--a", "2", "--b", "3", "--table"),
     "--table needs --n/--V and no --a/--b"),
    # ring flags that the chosen ring would drop
    (_FROM_LOG + ("--eisenstein", "t^2-5"), "--eisenstein needs --p"),
    (_FROM_LOG + ("--eisenstein", "t^2-5", "--precision", "6"),
     "--precision needs --p"),
    (_FROM_LOG + ("--ring", "rationals", "--p", "5", "--precision", "6"),
     "--p does not apply with --ring rationals"),
])
def test_conflicting_carrier_flags_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag, message", [
    ("--elements", "empty element list"),
    ("--as-free", "empty generator list"),
])
def test_empty_carrier_list_exits_2(capsys, flag, message):
    code, out, err = run(
        capsys, "lubin-tate", "--p", "5", "--precision", "8", "--preset",
        "multiplicative", "--degree", "2", flag, "",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("demo-variation", "--p", "5", "--e1", "t^2-5", "--e2", "t^2-10",
     "--precision", "6"),
    _RECOVER + ("--table",),
])
def test_oversized_carrier_is_refused_before_law_work(capsys, monkeypatch, argv):
    monkeypatch.delenv("FGL_BUDGET", raising=False)
    # (5 - 1) * 5^5 * 3 + 1 = 37,501 classes
    code, out, err = run(capsys, *argv, "--n", "6", "--V", "3")
    assert (code, out) == (2, "")
    assert err == ("error: carrier of 37501 elements above cap 2000; "
                   "set FGL_BUDGET to raise it\n")
    # FGL_BUDGET scales the cap like the others: 19 * 2000 admits 37,501,
    # and the run goes on to fail on the ring precision instead
    monkeypatch.setenv("FGL_BUDGET", "19")
    code, out, err = run(capsys, *argv, "--n", "6", "--V", "3", "--json")
    assert (code, out) == (2, "")
    assert "need at least 8" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("n, V, message", [
    # 1,501 classes pass the budget; the monoid's precision check stops the
    # run before any law is built
    ("4", "3", "ring precision 5 cannot represent classes of valuation 2 "
     "with units mod m^4; need at least 6"),
    # (5 - 1) * 5^-1 * 3000 + 1 is no class count; the monoid refuses n = 0
    ("0", "3000", "need n >= 1 and V >= 1"),
])
def test_carrier_budget_leaves_admitted_carriers_to_the_monoid(capsys, monkeypatch,
                                                                n, V, message):
    monkeypatch.delenv("FGL_BUDGET", raising=False)
    code, out, err = run(
        capsys, "demo-variation", "--p", "5", "--e1", "t^2-5", "--e2",
        "t^2-10", "--n", n, "--V", V, "--precision", "5",
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


# A truncation bundle over Z_5 whose monoid descriptor says n = 6, V = 3.
# Its endomorphisms are those of the n = 1, V = 2 carrier, and the linear
# coefficient of x in F is 2, so a run the budget admits stops at the law
# axioms, before any work on the carrier.
OVER_BUDGET = Path(__file__).resolve().parent / "golden" / "check-over-budget.json"


def test_check_refuses_an_oversized_truncation_bundle(capsys, monkeypatch):
    monkeypatch.delenv("FGL_BUDGET", raising=False)
    code, out, err = run(capsys, "check", "--bundle", str(OVER_BUDGET))
    assert (code, out) == (2, "")
    assert err == ("error: carrier of 37501 elements above cap 2000; "
                   "set FGL_BUDGET to raise it\n")


def test_fgl_budget_admits_an_oversized_truncation_bundle(capsys, monkeypatch):
    monkeypatch.setenv("FGL_BUDGET", "19")
    code, out, err = run(capsys, "check", "--bundle", str(OVER_BUDGET), "--json")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "axioms"


# A law bundle over Q with F = 1 + x + y.  The unit axioms only plug in
# series without a constant term, but associativity substitutes F(y, z),
# whose constant term 1 no composition accepts.
CONSTANT_TERM = Path(__file__).resolve().parent / "golden" / "check-constant-term.json"


def test_check_refuses_a_law_with_a_constant_term(capsys):
    code, out, err = run(capsys, "check", "--bundle", str(CONSTANT_TERM))
    assert (code, out) == (2, "")
    assert err == ("error: malformed bundle: assignment for 'y' has a "
                   "nonzero constant term\n")


def test_the_parser_is_built_once_and_carries_no_state(capsys, tmp_path):
    from fgl.cli import build_parser

    assert build_parser() is build_parser()
    out_file = tmp_path / "law.json"
    code, out, err = run(capsys, "from-log", "--series", "T", "--degree", "4",
                         "--json", "--out", str(out_file))
    assert (code, out, err) == (0, "", "")
    assert json.loads(out_file.read_text())["law"]["axioms"]["all_pass"]
    # neither --json nor --out carries over into the next call
    code, out, err = run(capsys, "from-log", "--series", "T", "--degree", "4")
    assert (code, out, err) == (0, "F = x + y\nexp = T\n", "")


ROOT = Path(__file__).resolve().parent.parent


def run_module(*argv):
    """python -m fgl in a fresh interpreter, with the source tree first on
    its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fgl", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_python_m_fgl_passes_the_exit_code_through():
    base = ["recover-add", "--p", "5", "--precision", "6", "--preset", "standard"]
    done = run_module(*base, "--degree", "4", "--n", "1", "--V", "2", "--table")
    golden = ROOT / "perfbench" / "golden" / "cli" / "07-recover-add.stdout"
    assert (done.returncode, done.stdout, done.stderr) == (0, golden.read_text(), "")
    done = run_module(*base, "--degree", "0", "--n", "1", "--V", "2", "--table")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")
