"""Command-line interface: subcommands, piping, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import knotupsilon as ku
from knotupsilon.cli import main

from helpers import renamed


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_trefoil(capsys):
    rc, out, _ = run(capsys, ["build", "trefoil"])
    assert rc == 0
    obj = json.loads(out)
    assert len(obj["generators"]) == 3
    assert obj["ambient_d"] == 0


def test_build_chen_cable_emits_plfunction(capsys):
    rc, out, _ = run(capsys, ["build", "chen-cable:8"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["breakpoints"][0] == "0"
    assert obj["slopes"][0] == -7


def test_build_unknown_name(capsys):
    rc, _, err = run(capsys, ["build", "granny"])
    assert rc == 2
    assert err == "error: unknown builtin name 'granny'\n"


def test_upsilon_trefoil(capsys):
    rc, out, _ = run(capsys, ["upsilon", "trefoil"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["breakpoints"] == ["0", "1", "2"]
    assert obj["values"] == ["0", "-1", "0"]
    assert obj["slopes"] == [-1, 1]


def test_round_trip_build_into_upsilon(capsys, monkeypatch):
    _, built, _ = run(capsys, ["build", "trefoil"])
    _, direct, _ = run(capsys, ["upsilon", "trefoil"])
    rc, piped, _ = run(capsys, ["upsilon", "-"], stdin=built,
                       monkeypatch=monkeypatch)
    assert rc == 0
    assert piped == direct


def test_round_trip_closed_form(capsys, monkeypatch):
    _, built, _ = run(capsys, ["build", "chen-cable:9"])
    _, direct, _ = run(capsys, ["upsilon", "chen-cable:9"])
    rc, piped, _ = run(capsys, ["upsilon", "-"], stdin=built,
                       monkeypatch=monkeypatch)
    assert rc == 0
    assert piped == direct


def test_upsilon_deterministic(capsys):
    _, first, _ = run(capsys, ["upsilon", "torus:3,4"])
    _, second, _ = run(capsys, ["upsilon", "torus:3,4"])
    assert first == second


def test_upsilon_csv(capsys):
    rc, out, _ = run(capsys, ["sample", "trefoil", "1/2"])
    assert rc == 0
    assert out.splitlines() == ["0,0", "1/2,-1/2", "1,-1", "3/2,-1/2", "2,0"]


def test_upsilon_has_no_csv_flag(capsys):
    # sample is the one route to sampled CSV
    rc, out, err = run(capsys, ["upsilon", "trefoil", "--csv", "step=1/2"])
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --csv" in err


def test_sample_subcommand(capsys):
    rc, out, _ = run(capsys, ["sample", "trefoil", "1"])
    assert rc == 0
    assert out == "0,0\n1,-1\n2,0\n"


def test_sample_rejects_non_positive_step(capsys):
    # a negative step in any form parse_rational reads, exponent and
    # underscore included, reaches _sampling_step rather than argparse
    for step in ("0", "-1/2", "-1e-3", "-1_0"):
        rc, out, err = run(capsys, ["sample", "trefoil", step])
        assert rc == 2
        assert out == ""
        assert err == "error: sampling step must be positive, got %s\n" % step


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_upsilon_csv_rejects_non_positive_step(capsys, step):
    # a closed-form record takes the same route to sampled CSV
    rc, out, err = run(capsys, ["sample", "chen-cable:8", step])
    assert rc == 2
    assert out == ""
    assert err == "error: sampling step must be positive, got %s\n" % step


@pytest.mark.parametrize("argv", [
    ["sample", "trefoil", "1/1000000000"],
    ["sample", "torus:3,4", "1/1000000000"],
    ["sample", "trefoil", "1/500000"],
])
def test_sampling_step_row_limit(capsys, monkeypatch, argv):
    def refuse(record):
        raise AssertionError("upsilon computed before the step was checked")

    monkeypatch.setattr(ku.KnotRecord, "upsilon_function", refuse)
    rc, out, err = run(capsys, argv)
    step = argv[-1]
    rows = 2 * int(step.split("/")[1]) + 1
    assert rc == 2
    assert out == ""
    assert err == ("error: sampling step %s gives %d rows, more than 1000000\n"
                   % (step, rows))


@pytest.mark.parametrize("name, steps", [("torus:2,100002", 100001),
                                         ("torus:2,999999999999",
                                          999999999998),
                                         ("torus:3,-50002", 100002)])
def test_torus_past_the_step_limit_is_refused(capsys, monkeypatch, name,
                                              steps):
    def refuse(p, q):
        raise AssertionError("semigroup walked before the limit was checked")

    monkeypatch.setattr(ku.knots, "torus_knot_complex", refuse)
    for command in ("build", "upsilon"):
        start = perf_counter()
        rc, out, err = run(capsys, [command, name])
        assert perf_counter() - start < 1
        assert rc == 2
        assert out == ""
        assert err == ("error: %s needs (p-1)(|q|-1) = %d semigroup steps, "
                       "more than 100000\n" % (name, steps))


def test_torus_at_the_step_limit_is_built(capsys, monkeypatch):
    built = []

    def stub(p, q):
        built.append((p, q))
        return ku.torus_knot_complex(2, 3)

    monkeypatch.setattr(ku.knots, "torus_knot_complex", stub)
    rc, _, _ = run(capsys, ["tau", "torus:2,100001"])
    assert (rc, built) == (0, [(2, 100001)])


def test_tensor_past_the_generator_limit_is_refused(capsys, monkeypatch):
    def refuse(c1, c2):
        raise AssertionError("tensor built before the limit was checked")

    monkeypatch.setattr("knotupsilon.cli.tensor", refuse)
    for argv, sizes in ((["trefoil", "torus:2,33335"], (3, 33335, 100005)),
                        (["torus:2,1001", "torus:2,1001"],
                         (1001, 1001, 1002001))):
        start = perf_counter()
        rc, out, err = run(capsys, ["tensor"] + argv)
        assert perf_counter() - start < 1
        assert rc == 2
        assert out == ""
        assert err == ("error: tensor of %d and %d generators gives %d, more "
                       "than 100001\n" % sizes)


def test_tensor_at_the_generator_limit_is_built(capsys, monkeypatch):
    sizes = []

    def stub(c1, c2):
        sizes.append((len(c1.generators), len(c2.generators)))
        return ku.unknot_complex()

    monkeypatch.setattr("knotupsilon.cli.tensor", stub)
    rc, _, _ = run(capsys, ["tensor", "unknot",
                            "staircase:" + ",".join(["1"] * 100000)])
    assert (rc, sizes) == (0, [(1, 100001)])


def complex_file(path, n, entries):
    """A complex JSON file of n generators x0, x1, ... and the given
    (source, target, upower) entries, valid or not; tensor is stubbed."""
    path.write_text(json.dumps({
        "label": path.stem, "ambient_d": 0,
        "generators": [{"name": "x%d" % x, "alexander": 0, "maslov": 0}
                       for x in range(n)],
        "differential": [{"from": "x%d" % s, "to": "x%d" % t, "upower": k}
                         for s, t, k in entries]}))
    return str(path)


def test_tensor_past_the_entry_limit_is_refused(capsys, monkeypatch,
                                                tmp_path):
    def refuse(c1, c2):
        raise AssertionError("tensor built before the limit was checked")

    monkeypatch.setattr("knotupsilon.cli.tensor", refuse)
    # 3 entries * 40001 generators + 2 generators * 40000 entries
    small = complex_file(tmp_path / "small.json", 2,
                         [(0, 1, k) for k in range(3)])
    # 100 sources each mapped to all of 100 targets, with itself: 40000
    # generators, under their limit, and 10000 * 200 * 2 entries
    full = complex_file(tmp_path / "full.json", 200,
                        [(s, t, 0) for s in range(100)
                         for t in range(100, 200)])
    for argv, entries in (
            ([small, "staircase:" + ",".join(["1"] * 40000)], 200003),
            ([full, full], 4000000)):
        start = perf_counter()
        rc, out, err = run(capsys, ["tensor"] + argv)
        assert perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert err == ("error: tensor gives %d differential entries, more "
                       "than 200002\n" % entries)


def test_tensor_at_the_entry_limit_is_built(capsys, monkeypatch, tmp_path):
    sizes = []

    def stub(c1, c2):
        sizes.append((len(c1.generators), len(c1.differential),
                      len(c2.generators), len(c2.differential)))
        return ku.unknot_complex()

    monkeypatch.setattr("knotupsilon.cli.tensor", stub)
    # 10 * 16667 + 2 * 16666 = 200002 entries
    small = complex_file(tmp_path / "small.json", 2,
                         [(0, 1, k) for k in range(10)])
    rc, _, _ = run(capsys, ["tensor", small,
                            "staircase:" + ",".join(["1"] * 16666)])
    assert (rc, sizes) == (0, [(2, 10, 16667, 16666)])


def test_tau_subcommand(capsys):
    rc, out, _ = run(capsys, ["tau", "torus:2,7"])
    assert rc == 0
    assert json.loads(out) == {"tau": 3}


def test_tau_closed_form_record(capsys):
    rc, out, _ = run(capsys, ["tau", "chen-cable:8"])
    assert rc == 0
    assert json.loads(out) == {"tau": 7}


def test_tensor_subcommand(capsys):
    rc, out, _ = run(capsys, ["tensor", "trefoil", "trefoil"])
    assert rc == 0
    assert len(json.loads(out)["generators"]) == 9


def test_tensor_name_clash_is_domain_error(capsys, tmp_path):
    t = ku.torus_knot_complex(2, 3)
    paths = []
    for tag, names in (("a", ["a", "a*b", "q"]), ("b", ["b*c", "c", "r"])):
        paths.append(tmp_path / (tag + ".json"))
        paths[-1].write_text(ku.complex_to_json(renamed(t, names)))
        assert run(capsys, ["validate", str(paths[-1])])[0] == 0
    rc, out, err = run(capsys, ["tensor"] + [str(p) for p in paths])
    assert (rc, out, err) == (1, "", "error: tensor name clash: ['a*b*c']\n")


def test_dual_subcommand(capsys):
    rc, out, _ = run(capsys, ["dual", "trefoil"])
    assert rc == 0
    gens = json.loads(out)["generators"]
    assert [g["alexander"] for g in gens] == [-1, 0, 1]


def test_validate_good(capsys):
    rc, out, _ = run(capsys, ["validate", "trefoil"])
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_validate_bad_file(capsys, tmp_path):
    bad = {
        "label": None, "ambient_d": 0,
        "generators": [{"name": "a", "alexander": 1, "maslov": 0},
                       {"name": "b", "alexander": 0, "maslov": -1},
                       {"name": "c", "alexander": -1, "maslov": -2}],
        "differential": [{"from": "a", "to": "b", "upower": 0},
                         {"from": "b", "to": "c", "upower": 0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, out, _ = run(capsys, ["validate", str(path)])
    assert rc == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert any("d^2" in v for v in report["violations"])


def test_upsilon_rejects_broken_complex(capsys, tmp_path):
    bad = {
        "label": None, "ambient_d": 0,
        "generators": [{"name": "a", "alexander": 1, "maslov": 0},
                       {"name": "b", "alexander": 0, "maslov": -1},
                       {"name": "c", "alexander": -1, "maslov": -2}],
        "differential": [{"from": "a", "to": "b", "upower": 0},
                         {"from": "b", "to": "c", "upower": 0}],
    }
    maslov = ku.complex_to_json_dict(ku.torus_knot_complex(2, 3))
    maslov["differential"][0]["upower"] += 1  # breaks the Maslov rule
    path = tmp_path / "bad.json"
    # structurally invalid, which is not non-admissible
    for obj, violation in (
            (bad, "d^2 != 0: odd number of two-step paths a -> c with "
                  "total U-power 0"),
            (maslov, "Maslov constraint violated by (x1 -> x0, U^2): "
                     "M(x0)=0, expected 2")):
        path.write_text(json.dumps(obj))
        rc, out, err = run(capsys, ["upsilon", "--file", str(path)])
        assert rc == 1
        assert out == ""
        assert err == "error: invalid complex: %s\n" % violation


def test_upsilon_rejects_rank_two(capsys, tmp_path):
    bad = {
        "label": None, "ambient_d": 0,
        "generators": [{"name": "x", "alexander": 0, "maslov": 0},
                       {"name": "y", "alexander": 0, "maslov": 0}],
        "differential": [],
    }
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(bad))
    rc, _, err = run(capsys, ["upsilon", str(path)])
    assert rc == 1
    assert "non-admissible" in err


def test_malformed_json_is_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    rc, _, err = run(capsys, ["upsilon", str(path)])
    assert rc == 2
    assert "JSON" in err


def test_bytes_that_are_not_utf8_are_a_parse_error(capsys, monkeypatch,
                                                   tmp_path):
    # a UTF-16 byte-order mark: unreadable as UTF-8, from a file and from a
    # stdin that decodes strictly, as it does under a UTF-8 locale
    data = b"\xff\xfe{}"
    codec = ("'utf-8' codec can't decode byte 0xff in position 0: invalid "
             "start byte")
    path = tmp_path / "utf16.json"
    path.write_bytes(data)
    rc, out, err = run(capsys, ["upsilon", "--file", str(path)])
    assert (rc, out) == (2, "")
    assert err == "error: cannot read %r: %s\n" % (str(path), codec)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                      encoding="utf-8"))
    rc, out, err = run(capsys, ["tau", "-"])
    assert (rc, out) == (2, "")
    assert err == "error: cannot read '<stdin>': %s\n" % codec


def test_unknown_keys_rejected(capsys, tmp_path):
    obj = ku.complex_to_json_dict(ku.unknot_complex())
    obj["surprise"] = True
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, ["validate", str(path)])
    assert rc == 2
    assert "unknown keys" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, ["upsilon", "no-such-file.json"])
    assert rc == 2
    assert "cannot read" in err


def test_file_flag_forces_path(capsys):
    rc, _, err = run(capsys, ["upsilon", "trefoil", "--file"])
    assert rc == 2
    assert "cannot read" in err


def test_certify_rv_chen(capsys):
    rc, out, _ = run(capsys, ["certify-rv", "chen-cable:8", "--genus", "10"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "right_veering_certified"
    assert obj["witness_interval"] == ["2/3", "1"]


def test_certify_rv_uses_record_genus(capsys):
    rc, out, _ = run(capsys, ["certify-rv", "trefoil"])
    assert rc == 0
    assert json.loads(out)["genus_used"] == 1


def test_certify_rv_file_needs_genus(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(ku.complex_to_json(ku.torus_knot_complex(2, 3)))
    rc, _, err = run(capsys, ["certify-rv", str(path)])
    assert rc == 1
    assert "genus" in err


def test_certify_rv_file_takes_matching_genus(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(ku.complex_to_json(ku.torus_knot_complex(3, 4)))
    rc, out, _ = run(capsys, ["certify-rv", str(path), "--genus", "3"])
    assert rc == 0
    assert json.loads(out)["genus_used"] == 3
    rc, out, err = run(capsys, ["certify-rv", str(path), "--genus", "2"])
    assert rc == 1
    assert out == ""
    assert err == "error: genus 2 disagrees with top Alexander grading 3\n"


@pytest.mark.parametrize("command",
                         ["certify-rv", "classify-tight", "ribbon-report"])
def test_genus_contradicting_complex_is_domain_error(capsys, command):
    rc, out, err = run(capsys, [command, "torus:3,4", "--genus", "2"])
    assert rc == 1
    assert out == ""
    assert err == "error: genus 2 disagrees with top Alexander grading 3\n"


def test_classify_tight_trefoil(capsys):
    rc, out, _ = run(capsys, ["classify-tight", "trefoil"])
    assert rc == 0
    assert json.loads(out) == {"tau": 1, "genus": 1, "classification": "tight"}


def test_classify_tight_chen(capsys):
    rc, out, _ = run(capsys, ["classify-tight", "chen-cable:8"])
    assert rc == 0
    assert json.loads(out)["classification"] == "overtwisted"


def test_obstruct_subcommand(capsys):
    rc, out, _ = run(capsys, ["obstruct", "trefoil", "unknot"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "obstructed"
    assert obj["reason"] == "upsilon_mismatch"


@pytest.mark.parametrize("key", ["breakpoints", "values", "slopes"])
def test_pl_field_not_a_list_is_parse_error(capsys, tmp_path, key):
    obj = {"breakpoints": ["0", "2"], "values": ["0", "0"], "slopes": [0]}
    obj[key] = 5
    path = tmp_path / "pl.json"
    path.write_text(json.dumps(obj))
    for argv in (["upsilon", str(path), "--file"],
                 ["obstruct", str(path), "unknot"]):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err == "error: %r must be a list\n" % key


@pytest.mark.parametrize("bps, values, message", [
    (["0", "1", "1", "2"], ["0", "0", "0", "0"],
     "breakpoints must be strictly increasing"),
    (["0", "1/2", "2"], ["0", "1/3", "1/3"],
     "non-integer slope 2/3 on [0, 1/2]")])
def test_pl_out_of_contract_is_parse_error(capsys, tmp_path, bps, values,
                                           message):
    path = tmp_path / "pl.json"
    path.write_text(json.dumps({"breakpoints": bps, "values": values}))
    rc, out, err = run(capsys, ["upsilon", str(path)])
    assert rc == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv, message", [
    (["validate", "chen-cable:8"], "input 'chen-cable:8' is not a complex"),
    (["upsilon", "torus:1,3"], "need p, |q| >= 2"),
    (["upsilon", "chen-cable:8,9"], "chen-cable:n takes one integer")])
def test_builtin_refusal_is_domain_error(capsys, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == "error: %s\n" % message


def test_genus_on_complex_without_generators(capsys, tmp_path):
    # nothing to check the genus against: the complex is refused later
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"label": "empty", "ambient_d": 0,
                                "generators": [], "differential": []}))
    for command, message in (
            ("certify-rv", "non-admissible: homology has dimension 0 != 1 "
                           "in grading 0"),
            ("classify-tight", "non-admissible: homology has dimension 0 "
                               "!= 1 in grading 0"),
            ("ribbon-report", "record 'empty' is not known to be fibered")):
        rc, out, err = run(capsys, [command, str(path), "--genus", "0"])
        assert rc == 1
        assert out == ""
        assert err == "error: %s\n" % message


@pytest.mark.parametrize("key", ["generators", "differential"])
@pytest.mark.parametrize("value", [5, 7, None])
def test_complex_field_not_a_list_is_parse_error(capsys, tmp_path, key, value):
    obj = {"label": None, "ambient_d": 0, "generators": [], "differential": []}
    obj[key] = value
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "upsilon"):
        rc, out, err = run(capsys, [command, str(path), "--file"])
        assert rc == 2
        assert out == ""
        assert err == "error: %r must be a list\n" % key


@pytest.mark.parametrize("edit, message", [
    ({"label": 5}, "label must be a string or null"),
    ({"label": ["T(2,3)"]}, "label must be a string or null"),
    ({"generators": [{"name": "x", "alexander": "0", "maslov": 0}]},
     "generator alexander must be an integer"),
    ({"generators": [{"name": "x", "alexander": 0, "maslov": 0.0}]},
     "generator maslov must be an integer"),
    ({"generators": [{"name": "x", "alexander": True, "maslov": 0}]},
     "generator alexander must be an integer"),
    ({"generators": [{"name": "x", "alexander": 0, "maslov": False}]},
     "generator maslov must be an integer"),
])
def test_complex_field_of_wrong_type_is_parse_error(capsys, tmp_path, edit,
                                                    message):
    obj = {"label": None, "ambient_d": 0,
           "generators": [{"name": "x", "alexander": 0, "maslov": 0}],
           "differential": []}
    obj.update(edit)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, ["validate", str(path)])
    assert rc == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_pl_oversized_rational_is_parse_error(capsys, tmp_path):
    path = tmp_path / "pl.json"
    path.write_text(json.dumps({"breakpoints": ["0", "2"],
                                "values": ["0", "1e20000000"]}))
    start = perf_counter()
    rc, out, err = run(capsys, ["upsilon", str(path)])
    assert perf_counter() - start < 1
    assert rc == 2
    assert out == ""
    assert err.startswith("error: rational '1e20000000' has more than")


@pytest.mark.parametrize("text", [
    '{"breakpoints": ["0", "2"], "values": [0, %s]}' % ("1" * 5000),
    "[" * 100000 + "]" * 100000])
def test_json_past_interpreter_limits_is_parse_error(capsys, tmp_path, text):
    path = tmp_path / "big.json"
    path.write_text(text)
    rc, out, err = run(capsys, ["upsilon", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: invalid JSON from %s: " % path)


def test_ribbon_report_subcommand(capsys):
    rc, out, _ = run(capsys, ["ribbon-report", "trefoil"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["hypothesis"]["holds"] is True
    assert obj["hypothesis"]["t_interval"] == "[0,2]"


def test_ribbon_report_missing_data(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(ku.complex_to_json(ku.torus_knot_complex(2, 3)))
    rc, _, err = run(capsys, ["ribbon-report", str(path)])
    assert rc == 1
    assert "fibered" in err


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "out.json"
    rc, out, _ = run(capsys, ["upsilon", "trefoil", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["values"] == ["0", "-1", "0"]


def test_out_flag_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    rc, out, err = run(capsys, ["upsilon", "trefoil", "--out", str(target)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: cannot write %r" % str(target))
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["certify-rv", "trefoil", "--genus", "-1"],
    ["classify-tight", "chen-cable:8", "--genus", "-3"],
    ["ribbon-report", "chen-cable:8", "--genus", "-1"],
    ["ribbon-report", "trefoil", "--genus", "-1"],
])
def test_negative_genus_is_domain_error(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err == "error: genus must be non-negative\n"


def test_no_subcommand_is_parse_error(capsys):
    assert main([]) == 2


def test_unknown_option_rejected(capsys):
    assert main(["upsilon", "trefoil", "--frobnicate"]) == 2


def test_cli_import_leaves_out_heavy_stdlib_modules():
    # what importing the CLI adds to the modules of a bare interpreter;
    # dataclasses would bring the rest of this list in with it
    code = ("import sys; bare = set(sys.modules); import knotupsilon.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    added = set(subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True,
                               check=True).stdout.split())
    assert "knotupsilon.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
