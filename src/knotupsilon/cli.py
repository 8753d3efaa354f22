"""Command-line front end over the JSON interchange formats.

Inputs are builtin names (resolved first; see `knotupsilon build --help`),
file paths, or "-" for stdin.  Complexes travel as the complex JSON
format, closed-form invariants as the piecewise-linear JSON format, and
every rational is serialized as an exact "p/q" string.

Exit codes: 0 success, 1 domain errors (invalid or non-admissible
complexes, missing record data), 2 parse errors (bad arguments, malformed
JSON, unknown keys).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .certificates import (certify_right_veering, classify_tightness,
                           obstruct_concordance, ribbon_minimality_report)
from .complexes import complex_to_json, dual, tensor, validate
from .errors import (FormatError, InvalidComplexError, KnotLibError,
                     MissingDataError, NonAdmissibleError)
from .knots import KnotRecord, builtin_record
from .plfunction import PLFunction, parse_rational


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotupsilon",
        description="bifiltered knot complexes, exact upsilon, certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, inputs=1, genus_flag=False, csv_flag=False):
        p = sub.add_parser(name, help=help_text)
        for k in range(inputs):
            p.add_argument("input" if inputs == 1 else "input%d" % k,
                           help="builtin name, file path, or - for stdin")
        if inputs:
            p.add_argument("--file", action="store_true",
                           help="force path interpretation of inputs")
        if genus_flag:
            p.add_argument("--genus", type=int, default=None,
                           help="genus to use (defaults to the record's)")
        if csv_flag:
            p.add_argument("--csv", metavar="step=p/q", default=None,
                           help="emit sampled CSV rows instead of JSON")
        p.add_argument("--out", metavar="path", default=None,
                       help="write output to a file instead of stdout")
        return p

    add("validate", "check a complex and report violations")
    build = sub.add_parser("build", help="emit JSON for a builtin name")
    build.add_argument("name", help="unknot | trefoil | trefoil-left | "
                       "figure8 | torus:p,q | staircase:a,b,... | chen-cable:n")
    build.add_argument("--out", metavar="path", default=None)
    add("upsilon", "compute the upsilon function", csv_flag=True)
    add("tau", "compute the tau invariant")
    add("tensor", "tensor product of two complexes", inputs=2)
    add("dual", "mirror a complex")
    add("certify-rv", "right-veering certificate from the slope test",
        genus_flag=True)
    add("classify-tight", "tight or overtwisted via tau versus genus",
        genus_flag=True)
    add("obstruct", "concordance obstructions between two inputs", inputs=2)
    add("ribbon-report", "ribbon-concordance minimality report",
        genus_flag=True)
    sample = add("sample", "sample upsilon as CSV rows t,value")
    sample.add_argument("step", help="rational sampling step, e.g. 1/8")
    return parser


def _load_record(name: str, force_file: bool) -> KnotRecord:
    """Resolve an input to a KnotRecord (builtins first unless --file)."""
    if name == "-":
        return _record_from_text(sys.stdin.read(), "<stdin>")
    if not force_file:
        try:
            return builtin_record(name)
        except KeyError:
            pass
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError("cannot read %r: %s" % (name, exc)) from exc
    return _record_from_text(text, name)


def _record_from_text(text: str, origin: str) -> KnotRecord:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("invalid JSON from %s: %s" % (origin, exc)) from exc
    if isinstance(obj, dict) and "breakpoints" in obj:
        return KnotRecord(name=origin,
                          upsilon_override=PLFunction.from_json_dict(obj))
    from .complexes import complex_from_json_dict
    c = complex_from_json_dict(obj)
    return KnotRecord(name=c.label or origin, complex=c)


def _require_complex(record: KnotRecord):
    if record.complex is None:
        raise MissingDataError(
            "input %r is not a complex" % record.name)
    return record.complex


def _sampling_step(text: str) -> Fraction:
    step = parse_rational(text)
    if step <= 0:
        raise FormatError("sampling step must be positive, got %s" % text)
    return step


def _record_genus(record: KnotRecord, override) -> int:
    if override is not None:
        return override
    if record.genus is not None:
        return record.genus
    raise MissingDataError("no genus known for %r; pass --genus" % record.name)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _dispatch(args) -> tuple[str, int]:
    cmd = args.command
    if cmd == "build":
        record = builtin_record(args.name)
        if record.complex is not None:
            return complex_to_json(record.complex), 0
        return record.upsilon_function().to_json(), 0

    if cmd == "tensor":
        a = _require_complex(_load_record(args.input0, args.file))
        b = _require_complex(_load_record(args.input1, args.file))
        return complex_to_json(tensor(a, b)), 0

    if cmd == "obstruct":
        k0 = _load_record(args.input0, args.file)
        k1 = _load_record(args.input1, args.file)
        return _dumps(obstruct_concordance(k0, k1).to_json_dict()), 0

    record = _load_record(args.input, args.file)

    if cmd == "validate":
        c = _require_complex(record)
        report = validate(c)
        text = _dumps({"ok": report.ok, "violations": list(report.violations)})
        return text, 0 if report.ok else 1

    if cmd == "upsilon":
        if args.csv is None:
            return record.upsilon_function().to_json(), 0
        if not args.csv.startswith("step="):
            raise FormatError("--csv expects step=p/q")
        step = _sampling_step(args.csv[len("step="):])
        return record.upsilon_function().sample_csv(step), 0

    if cmd == "tau":
        return _dumps({"tau": record.tau()}), 0

    if cmd == "dual":
        return complex_to_json(dual(_require_complex(record))), 0

    if cmd == "certify-rv":
        genus = _record_genus(record, args.genus)
        cert = certify_right_veering(record.upsilon_function(), genus)
        return _dumps(cert.to_json_dict()), 0

    if cmd == "classify-tight":
        genus = _record_genus(record, args.genus)
        t = record.tau()
        return _dumps({"tau": t, "genus": genus,
                       "classification": classify_tightness(t, genus)}), 0

    if cmd == "ribbon-report":
        if args.genus is not None:
            record = dataclasses.replace(record, genus=args.genus)
        return _dumps(ribbon_minimality_report(record).to_json_dict()), 0

    if cmd == "sample":
        step = _sampling_step(args.step)
        return record.upsilon_function().sample_csv(step), 0

    raise AssertionError("unhandled command %r" % cmd)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output, status = _dispatch(args)
    except (FormatError, KeyError) as exc:
        print("error: %s" % (exc.args[0] if exc.args else exc),
              file=sys.stderr)
        return 2
    except NonAdmissibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InvalidComplexError as exc:
        print("error: non-admissible input: %s" % exc, file=sys.stderr)
        return 1
    except (MissingDataError, KnotLibError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
