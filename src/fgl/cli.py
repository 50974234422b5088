"""Command-line surface.

Every subcommand validates its inputs before computing, writes its result to
stdout (or --out) and errors to stderr, and exits 0 on success, 1 on a
verification failure with a report, 2 on invalid input.  JSON output is
canonically ordered, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .laws import (
    FormalGroupLaw,
    LawError,
    MonoidAction,
    NonInvertibleDivision,
    action_from_bundle,
    from_logarithm,
    logarithm,
)
from .lubin_tate import (
    LubinTateDatum,
    LubinTateError,
    build_action,
    build_endomorphism,
    build_fgl,
    multiplicative_datum,
    standard_datum,
)
from .monoids import (BOTTOM, FreeCommutativeMonoid, PadicTruncationMonoid,
                      RingSubsetMonoid, monoid_from_descriptor, padic_truncation_of,
                      truncation_size)
from .parsing import ParseError, parse_integer_polynomial, parse_series
from .recovery import (
    NoMatch,
    RecoveryError,
    build_addition_table,
    entry_label,
    recover_sum,
    variation_demo,
)
from .rings import (
    EisensteinExtension,
    PadicIntegers,
    PadicRing,
    RationalField,
    RingError,
)
from .universal import (
    IdealNotKilled,
    UniversalError,
    budget_caps,
    classify_fgl,
    generate_presentation,
    specialize,
)


class _Exit(Exception):
    """A reported error; each subclass's code is the exit status main returns:
    2 for invalid input, 1 for a failed computation or verification."""

    code: int

    def __init__(self, kind: str, message: str, **details):
        super().__init__(message)
        self.kind = kind
        self.details = details


class _Invalid(_Exit):
    code = 2


class _Failed(_Exit):
    code = 1


# raised by a bundle that parses as JSON but is no law or action; every fgl
# error, LawError and MonoidError included, is a RingError
_MALFORMED = (KeyError, TypeError, ValueError, RingError)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(args, payload, text: str):
    """JSON payload in json mode, text rendering otherwise; --out redirects
    either form to a file."""
    body = _dump(payload) if args.json else text + "\n"
    if getattr(args, "out", None):
        _write_file(args.out, body)
    else:
        sys.stdout.write(body)


def _write_file(path: str, body: str):
    try:
        with open(path, "w") as fh:
            fh.write(body)
    except OSError as exc:
        raise _Invalid("file", f"cannot write {path}: {exc.strerror}") from exc


def _report_error(args, code: int, kind: str, message: str, details: dict) -> int:
    if getattr(args, "json", False):
        sys.stderr.write(_dump({"error": {"kind": kind, "message": message, **details}}))
    else:
        sys.stderr.write(f"error: {message}\n")
    return code


# ---------------------------------------------------------------------------
# input construction helpers (failures here are exit-2 material)


def _build_ring(args):
    """The ring the flags name; a flag that ring would drop is refused."""
    padic = [f"--{name}" for name in ("p", "precision", "eisenstein")
             if getattr(args, name) is not None]
    if getattr(args, "ring", None) == "rationals" and padic:
        raise _Invalid("conflicting-flags",
                       f"{padic[0]} does not apply with --ring rationals")
    if args.p is None:
        if padic:
            raise _Invalid("missing-flag", f"{padic[0]} needs --p")
        return RationalField()
    if args.precision is None:
        raise _Invalid("missing-flag", "--precision is required with --p")
    if args.eisenstein is not None:
        poly = parse_integer_polynomial(args.eisenstein)
        return EisensteinExtension(args.p, args.precision, poly)
    return PadicIntegers(args.p, args.precision)


def _check_degree(args):
    if args.degree < 1:
        raise _Invalid("degree", f"--degree must be at least 1, got {args.degree}")


def _build_datum(args, ctx) -> LubinTateDatum:
    if not isinstance(ctx, PadicRing):
        raise _Invalid("ring", "this subcommand needs --p (and optionally --eisenstein)")
    preset = getattr(args, "preset", None)
    series = getattr(args, "series", None)
    if (preset is None) == (series is None):
        raise _Invalid("missing-flag", "pass exactly one of --preset or --series")
    if preset == "standard":
        return standard_datum(ctx, degree=args.degree)
    if preset == "multiplicative":
        return multiplicative_datum(ctx, degree=args.degree)
    f = parse_series(series, ctx, ("T",), max(args.degree, ctx.p),
                     pi_payload=ctx.uniformizer().payload)
    return LubinTateDatum(ctx, f)


def _parse_elements(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(part))
        except ValueError:
            raise _Invalid("elements", f"scalar {part!r} is not an integer") from None
    if not out:
        raise _Invalid("elements", "empty element list")
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _Invalid("file", f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise _Invalid("file", f"{path} is not valid JSON: {exc}") from exc


def _image_value(raw):
    if isinstance(raw, str):
        return Fraction(raw)
    if isinstance(raw, list):
        return tuple(raw)
    if isinstance(raw, (int, Fraction)):
        return raw
    raise _Invalid("images", f"unusable image value {raw!r}")


def _action_text(action: MonoidAction) -> str:
    lines = [f"F = {action.law.F}"]
    for payload, endo in sorted(action.assignment.items(), key=lambda t: str(t[0])):
        lines.append(f"[{action.monoid.label(payload)}] = {endo.series}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _build_law(datum, degree: int) -> FormalGroupLaw:
    try:
        return build_fgl(datum, degree)
    except (LubinTateError, LawError) as exc:
        raise _Failed("law", str(exc)) from exc


def _parse_generator_scalars(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, value = part.partition("=")
        if not eq or not name.strip():
            raise _Invalid("as-free", f"expected name=scalar, got {part!r}")
        try:
            out.append((name.strip(), int(value)))
        except ValueError:
            raise _Invalid("as-free", f"scalar {value!r} is not an integer") from None
    if not out:
        raise _Invalid("as-free", "empty generator list")
    return out


def _free_action(datum, law, pairs: list) -> MonoidAction:
    monoid = FreeCommutativeMonoid(tuple(name for name, _ in pairs))
    assignment = {monoid.generator(name): build_endomorphism(datum, law, scalar)
                  for name, scalar in pairs}
    return MonoidAction(monoid, law, assignment)


def _cmd_lubin_tate(args) -> int:
    _check_degree(args)
    if args.as_free is not None and args.elements is not None:
        raise _Invalid("conflicting-flags", "pass --elements or --as-free, not both")
    ctx = _build_ring(args)
    datum = _build_datum(args, ctx)
    law = _build_law(datum, args.degree)
    try:
        if args.as_free is not None:
            action = _free_action(datum, law, _parse_generator_scalars(args.as_free))
        else:
            elements = _parse_elements("2" if args.elements is None else args.elements)
            action = build_action(datum, law, RingSubsetMonoid(ctx, elements))
    except (LubinTateError, LawError) as exc:
        raise _Failed("endomorphism", str(exc)) from exc
    _verified(action)
    bundle = action.to_bundle()
    bundle["f"] = datum.f.to_json()
    _emit(args, bundle, _action_text(action))
    return 0


def _cmd_from_log(args) -> int:
    ctx = _build_ring(args)
    pi = None if isinstance(ctx, RationalField) else ctx.uniformizer().payload
    f = parse_series(args.series, ctx, ("T",), args.degree, pi_payload=pi)
    try:
        law, g = from_logarithm(f)
    except NonInvertibleDivision as exc:
        raise _Failed("division", str(exc), denominator=exc.denominator,
                      degree=exc.degree) from exc
    payload = {"law": law.to_bundle(), "exp": g.to_json()}
    _emit(args, payload, f"F = {law.F}\nexp = {g}")
    return 0


def _load(loader, obj):
    """loader(obj), a malformed bundle exiting 2."""
    try:
        return loader(obj)
    except _MALFORMED as exc:
        raise _Invalid("bundle", f"malformed bundle: {exc}") from exc


def _check_axioms(law: FormalGroupLaw) -> dict:
    """A loaded law's axiom report; a failing one exits 1 with it."""
    axioms = law.report.to_json()
    if not law.report.all_pass:
        raise _Failed("axioms", "law axioms fail", report=axioms)
    return axioms


def _verified(action: MonoidAction) -> dict:
    """verify_action's report on action; a failing one exits 1."""
    report = action.verify()
    if not report.ok:
        raise _Failed("action", "action verification failed", report=report.to_json())
    return report.to_json()


def _cmd_check(args) -> int:
    obj = _load_json(args.bundle)
    if "endomorphisms" in obj:
        action = _load(action_from_bundle, obj)
        monoid = action.monoid
        if isinstance(monoid, PadicTruncationMonoid):
            _check_carrier(monoid.ctx.p, monoid.n, monoid.V)
        payload = {"ok": True, "axioms": _check_axioms(action.law),
                   "action": _verified(action)}
        _emit(args, payload, "ok: axioms and action identities hold")
        return 0
    law = _load(FormalGroupLaw.from_bundle, obj)
    _emit(args, {"ok": True, "axioms": _check_axioms(law)}, "ok: axioms hold")
    return 0


def _cmd_log(args) -> int:
    obj = _load_json(args.bundle)
    source = obj["law"] if "law" in obj and isinstance(obj["law"], dict) else obj
    law = _load(FormalGroupLaw.from_bundle, source)
    _check_axioms(law)
    try:
        ell = logarithm(law)
    except NonInvertibleDivision as exc:
        raise _Failed("division", str(exc), denominator=exc.denominator,
                      degree=exc.degree) from exc
    _emit(args, {"log": ell.to_json()}, f"log = {ell}")
    return 0


def _cmd_recover_add(args) -> int:
    _check_degree(args)
    truncation = args.n is not None or args.V is not None
    if truncation and (args.n is None or args.V is None):
        raise _Invalid("missing-flag", "pass --n and --V together")
    if truncation and args.elements is not None:
        raise _Invalid("conflicting-flags", "pass --elements or --n/--V, not both")
    if args.table and (not truncation or args.a is not None or args.b is not None):
        raise _Invalid("conflicting-flags", "--table needs --n/--V and no --a/--b")
    ctx = _build_ring(args)
    datum = _build_datum(args, ctx)
    if args.table:
        _check_carrier(ctx.p, args.n, args.V)
    law = _build_law(datum, args.degree)
    if truncation:
        monoid = padic_truncation_of(ctx, args.n, args.V)
        action = build_action(datum, law, monoid)
        if args.table:
            try:
                ring = build_addition_table(action)
            except RecoveryError as exc:
                raise _Failed("recovery", str(exc)) from exc
            table = ring.to_json()
            _emit(args, table, _table_text(table))
            return 0
        if args.a is None or args.b is None:
            raise _Invalid("missing-flag", "pass --a and --b, or --table")
        pa = monoid.class_of(ctx.normalize(args.a))
        pb = monoid.class_of(ctx.normalize(args.b))
    else:
        if args.elements is None or args.a is None or args.b is None:
            raise _Invalid("missing-flag",
                           "pass --elements with --a/--b, or --n/--V")
        action = build_action(datum, law,
                              RingSubsetMonoid(ctx, _parse_elements(args.elements)))
        monoid = action.monoid
        pa, pb = ctx.normalize(args.a), ctx.normalize(args.b)
    try:
        entry = recover_sum(action, pa, pb)
    except NoMatch as exc:
        raise _Failed("no-match", str(exc)) from exc
    except RecoveryError as exc:
        raise _Failed("recovery", str(exc)) from exc
    payload = {"a": monoid.label(pa), "b": monoid.label(pb),
               "sum": entry_label(monoid, entry)}
    _emit(args, payload, f"{payload['a']} + {payload['b']} = {payload['sum']}")
    return 0


def _check_carrier(p: int, n: int, V: int):
    """Refuse a truncation carrier above the budget before any law work."""
    size, cap = truncation_size(p, n, V), budget_caps()["carrier_elements"]
    if n >= 1 and size > cap:  # the monoid itself refuses n < 1
        raise _Invalid("budget", f"carrier of {size} elements above cap {cap}; "
                       "set FGL_BUDGET to raise it", size=size)


def _table_text(table: dict) -> str:
    width = max(len(c) for row in table["table"] for c in row["sums"])
    width = max(width, *(len(e) for e in table["elements"]))
    head = " " * (width + 2) + " ".join(e.rjust(width) for e in table["elements"])
    lines = [head]
    for row in table["table"]:
        cells = " ".join(c.rjust(width) for c in row["sums"])
        lines.append(f"{row['element'].rjust(width)} | {cells}")
    flags = table["flags"]
    lines.append(f"flags: cap={flags.get('cap', 0)} precision={flags.get('precision', 0)}")
    return "\n".join(lines)


def _cmd_demo_variation(args) -> int:
    _check_degree(args)
    poly1 = parse_integer_polynomial(args.e1)
    poly2 = parse_integer_polynomial(args.e2)
    if args.variants < 1:
        raise _Invalid("variants", f"--variants must be at least 1, got {args.variants}")
    _check_carrier(args.p, args.n, args.V)
    try:
        report = variation_demo(args.p, poly1, poly2, args.n, args.V,
                                trunc_degree=args.degree,
                                precision=args.precision,
                                variants=args.variants)
    except (RecoveryError, LawError, LubinTateError) as exc:
        raise _Failed("demo", str(exc)) from exc
    payload = report.to_json()
    lines = [
        f"p={report.p} rings t:{args.e1} vs t:{args.e2} n={report.n} V={report.V}",
        f"carrier size {report.carrier_size}, precision {report.precision}",
        f"multiplication identical: {report.multiplication_identical}",
    ]
    for variant in report.variants:
        lines.append(
            f"twist {variant.twist}: {variant.disagreements} addition "
            f"disagreements, {variant.agreements} agreements, "
            f"{variant.flag_mismatches} flag mismatches"
        )
    lines.append(f"all variants disagree: {report.all_variants_disagree}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_universal(args) -> int:
    monoid = monoid_from_descriptor(_load_json(args.monoid))
    pres = generate_presentation(monoid, args.degree)
    if args.cas:
        _write_file(args.cas, pres.polynomials_text() + "\n")
    payload = pres.to_json()
    nonzero = pres.nonzero_ideal()
    text = "\n".join(
        [f"variables: {', '.join(payload['variables'])}",
         f"relations ({len(nonzero)} nonzero of {len(pres.ideal)}):"]
        + [f"  {label}: {poly}" for label, poly in nonzero]
    )
    _emit(args, payload, text)
    return 0


def _cmd_specialize(args) -> int:
    monoid = monoid_from_descriptor(_load_json(args.monoid))
    pres = generate_presentation(monoid, args.degree)
    target = _build_ring(args)
    raw_images = _load_json(args.images)
    monoid_images: dict = {}
    c_images: dict = {}
    d_images: dict = {}
    monoid_names = {name: pres.monoid.label(p) for p, name in pres.monoid_vars.items()}
    c_names = {name: key for key, name in pres.c_vars.items()}
    d_names = {name: (pres.monoid.label(p), i)
               for (p, i), name in pres.d_vars.items()}
    for name, raw in raw_images.items():
        value = _image_value(raw)
        if name in monoid_names:
            monoid_images[monoid_names[name]] = value
        elif name in c_names:
            c_images[c_names[name]] = value
        elif name in d_names:
            d_images[d_names[name]] = value
        else:
            raise _Invalid("images", f"unknown variable {name!r}")
    try:
        action, report = specialize(pres, target, monoid_images, c_images, d_images)
    except IdealNotKilled as exc:
        raise _Failed("ideal-not-killed", str(exc), relation=exc.label,
                      value=exc.value) from exc
    except (UniversalError, LawError) as exc:
        raise _Failed("specialize", str(exc)) from exc
    _verified(action)  # the checks `check` runs on the bundle written here
    payload = {"action": action.to_bundle(), "verification": report}
    _emit(args, payload, _action_text(action))
    return 0


def _cmd_classify(args) -> int:
    monoid = monoid_from_descriptor(_load_json(args.monoid))
    action = _load(action_from_bundle, _load_json(args.bundle))
    if isinstance(monoid, PadicTruncationMonoid) and BOTTOM not in action.assignment:
        raise _Invalid("monoid", "classify reads an image for every listed element, and "
                       "the bundle assigns the absorbing class bot none")
    pres = generate_presentation(monoid, args.degree)
    _check_axioms(action.law)
    _verified(action)
    try:
        hom = classify_fgl(pres, action)
    except IdealNotKilled as exc:
        raise _Failed("ideal-not-killed", str(exc), relation=exc.label,
                      value=exc.value) from exc
    except UniversalError as exc:
        raise _Failed("classify", str(exc)) from exc
    payload = hom.to_json()
    text = "\n".join(f"{name} -> {value}"
                     for name, value in sorted(payload["images"].items()))
    _emit(args, payload, text)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_ring_flags(p, rationals=False):
    p.add_argument("--p", type=int, default=None, help="residue characteristic")
    p.add_argument("--precision", type=int, default=None,
                   help="coefficient precision (powers of the uniformizer)")
    p.add_argument("--eisenstein", default=None,
                   help="defining polynomial in t for a ramified extension")
    if rationals:
        p.add_argument("--ring", choices=["rationals"], default=None,
                       help="work over the rationals (default without --p)")


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fgl argument parser, built once per process: parse_args keeps no
    state in it, as each call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="fgl",
        description="formal group laws with monoid actions, exactly",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lubin-tate", help="build a law and its endomorphisms")
    _add_ring_flags(p)
    p.add_argument("--preset", choices=["standard", "multiplicative"], default=None)
    p.add_argument("--series", default=None, help="defining series f in T (and pi)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--elements", default=None,
                   help="comma-separated scalars to act by (default 2)")
    p.add_argument("--as-free", default=None, metavar="NAME=SCALAR,...",
                   help="act through a free monoid with named generators")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_lubin_tate)

    p = sub.add_parser("from-log", help="group law from a strict logarithm")
    _add_ring_flags(p, rationals=True)
    p.add_argument("--series", required=True, help="logarithm f = T + ... ")
    p.add_argument("--degree", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_from_log)

    p = sub.add_parser("check", help="verify a stored law or action bundle")
    p.add_argument("--bundle", required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("log", help="formal logarithm of a stored law")
    p.add_argument("--bundle", required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_log)

    p = sub.add_parser("recover-add", help="addition recovered from an action")
    _add_ring_flags(p)
    p.add_argument("--preset", choices=["standard", "multiplicative"], default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--elements", default=None,
                   help="window mode: comma-separated scalars")
    p.add_argument("--n", type=int, default=None, help="unit precision of classes")
    p.add_argument("--V", type=int, default=None, help="valuation cap")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--table", action="store_true", help="emit the full table")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_recover_add)

    p = sub.add_parser("demo-variation", help="one multiplication, two additions")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e1", required=True, help="first defining polynomial in t")
    p.add_argument("--e2", required=True, help="second defining polynomial in t")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--degree", type=int, default=2, help="law truncation degree")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--variants", type=int, default=3)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_demo_variation)

    p = sub.add_parser("universal", help="truncated universal presentation")
    p.add_argument("--monoid", required=True, help="monoid descriptor JSON file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cas", default=None,
                   help="also write a comma-separated polynomial list here")
    _add_output_flags(p)
    p.set_defaults(run=_cmd_universal)

    p = sub.add_parser("specialize", help="evaluate a presentation in a ring")
    p.add_argument("--monoid", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--images", required=True,
                   help="JSON file mapping presentation variables to values")
    _add_ring_flags(p, rationals=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_specialize)

    p = sub.add_parser("classify", help="map a presentation onto a stored action")
    p.add_argument("--monoid", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bundle", required=True)
    _add_output_flags(p)
    p.set_defaults(run=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _Exit as exc:
        return _report_error(args, exc.code, exc.kind, str(exc), exc.details)
    except ParseError as exc:
        return _report_error(args, 2, "parse", str(exc),
                             {"position": exc.position})
    except RingError as exc:
        return _report_error(args, 2, "input", str(exc), {})
    except KeyError as exc:
        return _report_error(args, 2, "input", f"missing field {exc}", {})


if __name__ == "__main__":
    sys.exit(main())
