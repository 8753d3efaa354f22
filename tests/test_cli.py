"""Command-line interface: subcommands, piping, exit codes, determinism."""

import io
import json

import pytest

import knotupsilon as ku
from knotupsilon.cli import main


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
    assert "granny" in err


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
    rc, out, _ = run(capsys, ["upsilon", "trefoil", "--csv", "step=1/2"])
    assert rc == 0
    assert out.splitlines() == ["0,0", "1/2,-1/2", "1,-1", "3/2,-1/2", "2,0"]


def test_upsilon_csv_bad_step_flag(capsys):
    rc, _, err = run(capsys, ["upsilon", "trefoil", "--csv", "1/2"])
    assert rc == 2
    assert "step=" in err


def test_sample_subcommand(capsys):
    rc, out, _ = run(capsys, ["sample", "trefoil", "1"])
    assert rc == 0
    assert out == "0,0\n1,-1\n2,0\n"


def test_sample_rejects_non_positive_step(capsys):
    rc, out, err = run(capsys, ["sample", "trefoil", "0"])
    assert rc == 2
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("step", ["0", "-1/2"])
def test_upsilon_csv_rejects_non_positive_step(capsys, step):
    rc, out, err = run(capsys, ["upsilon", "trefoil", "--csv", "step=" + step])
    assert rc == 2
    assert out == ""
    assert "positive" in err


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
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, _, err = run(capsys, ["upsilon", str(path)])
    assert rc == 1
    assert "non-admissible" in err


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


def test_no_subcommand_is_parse_error(capsys):
    assert main([]) == 2


def test_unknown_option_rejected(capsys):
    assert main(["upsilon", "trefoil", "--frobnicate"]) == 2
