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
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .certificates import (certify_right_veering, classify_tightness,
                           obstruct_concordance, ribbon_minimality_report)
from .complexes import (_parse_json, complex_from_json_dict,
                         complex_to_json, dual, tensor, validate)
from .errors import FormatError, KnotLibError, MissingDataError
from .knots import KnotRecord, builtin_record
from .plfunction import PLFunction, parse_rational

# sample refuses a step that would print more rows
_MAX_SAMPLE_ROWS = 10**6
# tensor refuses a product past this many generators or twice as many entries
_MAX_TENSOR_GENERATORS = 100_001


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotupsilon",
        description="bifiltered knot complexes, exact upsilon, certificates")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    def add(name, help_text, inputs=1, genus_flag=False):
        p = sub.add_parser(name, help=help_text)
        for k in range(inputs):
            p.add_argument("input" if inputs == 1 else "input%d" % k,
                           help="builtin name, file path, or - for stdin")
        p.add_argument("--file", action="store_true",
                       help="force path interpretation of inputs")
        if genus_flag:
            p.add_argument("--genus", type=int, default=None,
                           help="genus to use (defaults to the record's)")
        p.add_argument("--out", metavar="path", default=None,
                       help="write output to a file instead of stdout")
        return p

    add("validate", "check a complex and report violations")
    build = sub.add_parser("build", help="emit JSON for a builtin name")
    build.add_argument("name", help="unknot | trefoil | trefoil-left | "
                       "figure8 | torus:p,q | staircase:a,b,... | chen-cable:n")
    build.add_argument("--out", metavar="path", default=None)
    add("upsilon", "compute the upsilon function")
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
    # "-1/2" or "-1e-3" is a step, not an option: _sampling_step names it
    sample._negative_number_matcher = re.compile(r"^-[\d.]")
    return parser


def _load_record(name: str, force_file: bool) -> KnotRecord:
    """Resolve an input to a KnotRecord (builtins first unless --file)."""
    if not force_file and name != "-":
        try:
            return builtin_record(name)
        except KeyError:
            pass
    origin = "<stdin>" if name == "-" else name
    try:  # bytes that are not UTF-8 are unreadable too
        text = (sys.stdin.read() if name == "-"
                else Path(name).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError("cannot read %r: %s" % (origin, exc)) from exc
    return _record_from_text(text, origin)


def _record_from_text(text: str, origin: str) -> KnotRecord:
    obj = _parse_json(text, " from " + origin)
    if isinstance(obj, dict) and "breakpoints" in obj:
        return KnotRecord(name=origin,
                          upsilon_override=PLFunction.from_json_dict(obj))
    c = complex_from_json_dict(obj)
    return KnotRecord(name=c.label or origin, complex=c)


def _require_complex(record: KnotRecord):
    if record.complex is None:
        raise MissingDataError("input %r is not a complex" % record.name)
    return record.complex


def _sampling_step(text: str) -> Fraction:
    step = parse_rational(text)
    if step <= 0:
        raise FormatError("sampling step must be positive, got %s" % text)
    rows = 2 // step + 1
    if rows > _MAX_SAMPLE_ROWS:
        raise FormatError("sampling step %s gives %d rows, more than %d"
                          % (text, rows, _MAX_SAMPLE_ROWS))
    return step


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
        n1, n2 = len(a._alex), len(b._alex)
        if n1 * n2 > _MAX_TENSOR_GENERATORS:
            raise FormatError("tensor of %d and %d generators gives %d, more "
                              "than %d" % (n1, n2, n1 * n2,
                                           _MAX_TENSOR_GENERATORS))
        # d(x*y) = dx*y + x*dy: each entry of a meets every generator of b
        e = len(a._entries) * n2 + n1 * len(b._entries)
        if e > 2 * _MAX_TENSOR_GENERATORS:
            raise FormatError("tensor gives %d differential entries, more "
                              "than %d" % (e, 2 * _MAX_TENSOR_GENERATORS))
        return complex_to_json(tensor(a, b)), 0

    if cmd == "obstruct":
        k0 = _load_record(args.input0, args.file)
        k1 = _load_record(args.input1, args.file)
        return _dumps(obstruct_concordance(k0, k1).to_json_dict()), 0

    record = _load_record(args.input, args.file)
    if getattr(args, "genus", None) is not None:
        record = record._replace(genus=args.genus)

    if cmd == "validate":
        c = _require_complex(record)
        report = validate(c)
        text = _dumps({"ok": report.ok, "violations": list(report.violations)})
        return text, 0 if report.ok else 1

    if cmd == "upsilon":
        return record.upsilon_function().to_json(), 0

    if cmd == "tau":
        return _dumps({"tau": record.tau()}), 0

    if cmd == "dual":
        return complex_to_json(dual(_require_complex(record))), 0

    genus = record.genus
    if cmd in ("certify-rv", "classify-tight") and genus is None:
        raise MissingDataError("no genus known for %r; pass --genus"
                               % record.name)

    if cmd == "certify-rv":
        cert = certify_right_veering(record.upsilon_function(), genus)
        return _dumps(cert.to_json_dict()), 0

    if cmd == "classify-tight":
        t = record.tau()
        return _dumps({"tau": t, "genus": genus,
                       "classification": classify_tightness(t, genus)}), 0

    if cmd == "ribbon-report":
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
    except (KnotLibError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out_path = getattr(args, "out", None)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print("error: cannot write %r: %s" % (out_path, exc),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
