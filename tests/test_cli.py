"""Command-line interface: formats, determinism, exit codes, schemas."""

import json
import subprocess
import sys
import warnings

import pytest

from conftest import child_env
from reflectjet import elastic, schemas
from reflectjet.cli import main
from reflectjet.modelio import (
    load_minus_side,
    load_model,
    model_from_dict,
    model_to_dict,
    read_symbol_csv,
)
from reflectjet.errors import ParseError

ACOUSTIC_MODEL = {
    "minus": {"rho_jet": [1.0, 0.3], "cs_jet": [1.0, -0.2]},
    "plus": {"rho_jet": [1.0, -0.5], "cs_jet": [2.0, 0.6]},
    "geometry": {"kappa1": 0.0, "kappa2": 0.0},
    "depth": 1,
}

ELASTIC_MODEL = {
    "minus": {"rho_jet": [1.0], "cs_jet": [1.0], "cp_jet": [2.0]},
    "plus": {"rho_jet": [1.4], "cs_jet": [1.2], "cp_jet": [2.3]},
}


def _write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_model_json_round_trip(tmp_path):
    model = model_from_dict(ACOUSTIC_MODEL)
    assert not model.is_elastic
    assert model.depth == 1
    path = _write_model(tmp_path, model_to_dict(model))
    again = load_model(path)
    assert again.minus.rho == model.minus.rho
    assert again.plus.cs == model.plus.cs
    schemas.validate(model_to_dict(model), "model")


def test_model_json_errors(tmp_path):
    bad = dict(ACOUSTIC_MODEL)
    bad["depth"] = 3
    with pytest.raises(ParseError):
        model_from_dict(bad)
    with pytest.raises(ParseError):
        model_from_dict({"minus": {"rho_jet": [1.0]}})
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["forward", "--model", str(path), "--out",
                 str(tmp_path / "x.csv")]) == 2
    # json.load accepts these tokens; a jet coefficient may not be one
    for token in ("NaN", "Infinity", "-Infinity"):
        bad = dict(ACOUSTIC_MODEL,
                   plus={"rho_jet": [1.0, -0.5], "cs_jet": [2.0, token]})
        path.write_text(json.dumps(bad).replace(f'"{token}"', token))
        with pytest.raises(ParseError, match="plus.cs_jet"):
            load_model(str(path))
        for argv in (["forward", "--out", str(tmp_path / "x.csv")],
                     ["roundtrip", "--out", str(tmp_path / "x.json")]):
            assert main(argv[:1] + ["--model", str(path)] + argv[1:]) == 2
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.json").exists()
    # a member the shipped schema does not know, or of the wrong type,
    # is named rather than ignored
    elastic_cpjet = {side: {"rho_jet": [1.0], "cs_jet": [1.0],
                            "cpjet": [2.0]} for side in ("minus", "plus")}
    for doc, member in (
            (dict(ACOUSTIC_MODEL, geometry={"kappa_1": 0.5, "kappa2": -0.2}),
             "kappa_1"),
            (elastic_cpjet, "cpjet"),
            (dict(ACOUSTIC_MODEL, depth=True), "depth")):
        path.write_text(json.dumps(doc))
        for load in (load_model, load_minus_side):
            with pytest.raises(ParseError, match=member):
                load(str(path))
        assert main(["forward", "--model", str(path), "--out",
                     str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_forward_values_and_order(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    out = tmp_path / "sym.csv"
    rc = main(["forward", "--model", model, "--out", str(out),
               "--grid", "0.2,0,0.1", "--depth", "1"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,xi1,xi2,order,re_aR,im_aR,re_aT,im_aT"
    rows = [line.split(",") for line in lines[1:]]
    # sorted by b then order descending
    assert [r[1] for r in rows] == ["0.0", "0.0", "0.1", "0.1", "0.2", "0.2"]
    assert [r[3] for r in rows] == ["0", "-1"] * 3
    # normal incidence with mu- = 1, mu+ = 4: R0 = -1/3
    assert float(rows[0][4]) == pytest.approx(-1.0 / 3.0)
    assert float(rows[0][6]) == pytest.approx(2.0 / 3.0)


def test_forward_identical_media_zero_reflection(tmp_path):
    doc = {"minus": ACOUSTIC_MODEL["minus"], "plus": ACOUSTIC_MODEL["minus"]}
    model = _write_model(tmp_path, doc)
    out = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(out),
                 "--grid", "0,0.2,0.4"]) == 0
    for line in out.read_text().strip().splitlines()[1:]:
        fields = line.split(",")
        assert abs(float(fields[4])) <= 1e-14
        assert abs(float(fields[5])) <= 1e-14


def test_forward_flags_post_critical_rows(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    out = tmp_path / "sym.csv"
    rc = main(["forward", "--model", model, "--out", str(out),
               "--grid", "0.1,0.9", "--depth", "0"])
    assert rc == 0
    text = out.read_text()
    assert "# skipped" in text and "evanescent" in text
    samples, kind = read_symbol_csv(str(out))
    assert kind == "acoustic"
    assert len(samples.samples) == 1  # flagged row carries no values


def test_forward_determinism_and_jobs(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    outs = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 2)):
        out = tmp_path / name
        assert main(["forward", "--model", model, "--out", str(out),
                     "--grid", "0,0.1,0.2,0.3", "--jobs", str(jobs)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_invert_round_trip_exit0(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    rec = tmp_path / "rec.json"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    assert main(["invert", "--model", model, "--symbols", str(sym),
                 "--out", str(rec), "--known-geometry"]) == 0
    doc = json.loads(rec.read_text())
    schemas.validate(doc, "recovery_report")
    assert doc["plus"]["cs_jet"][0] == pytest.approx(2.0, rel=1e-9)
    assert doc["plus"]["rho_jet"][1] == pytest.approx(-0.5, rel=1e-7)


def test_invert_condition_limit_exit3(tmp_path, capsys):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    assert main(["invert", "--model", model, "--symbols", str(sym),
                 "--out", str(tmp_path / "rec.json"), "--known-geometry",
                 "--tol", "condition=1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: IllConditioned: design matrix at order -1")
    assert not (tmp_path / "rec.json").exists()


def test_invert_missing_order_exit3(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3", "--depth", "0"]) == 0
    rc = main(["invert", "--model", model, "--symbols", str(sym),
               "--out", str(tmp_path / "rec.json"), "--depth", "1",
               "--known-geometry"])
    assert rc == 3


@pytest.mark.parametrize("case", ["elastic_over_cap", "shallow_minus"])
def test_invert_depth_beyond_jets_exit3(tmp_path, capsys, case):
    # a recovery deeper than the elastic cap, or than the minus-side jets,
    # is a DepthExceeded with one message line, not a traceback
    if case == "elastic_over_cap":
        model = symbols_model = _write_model(tmp_path, ELASTIC_MODEL)
        extra = ["--depth", "3"]
    else:
        symbols_model = _write_model(tmp_path, ACOUSTIC_MODEL)
        model = _write_model(tmp_path, {
            "minus": {"rho_jet": [1.0], "cs_jet": [1.0]},
            "plus": {"rho_jet": [1.0], "cs_jet": [2.0]}}, "shallow.json")
        extra = []
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", symbols_model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    rc = main(["invert", "--model", model, "--symbols", str(sym),
               "--out", str(tmp_path / "rec.json"), "--known-geometry"]
              + extra)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: DepthExceeded: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_invert_deduplicates_rows(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    doubled = tmp_path / "doubled.csv"
    lines = sym.read_text().strip().splitlines()
    doubled.write_text("\n".join(lines + lines[1:]) + "\n")
    rec_a, rec_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["invert", "--model", model, "--symbols", str(sym),
                 "--out", str(rec_a), "--known-geometry"]) == 0
    assert main(["invert", "--model", model, "--symbols", str(doubled),
                 "--out", str(rec_b), "--known-geometry"]) == 0
    a = json.loads(rec_a.read_text())
    b = json.loads(rec_b.read_text())
    assert a["plus"] == b["plus"]


@pytest.mark.parametrize("doc, field", [(ACOUSTIC_MODEL, "im_aR"),
                                        (ELASTIC_MODEL, "im_R")])
def test_invert_rejects_conflicting_duplicate_rows(tmp_path, capsys, doc,
                                                   field):
    model = _write_model(tmp_path, doc)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    lines = sym.read_text().strip().splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(field)] = "0.999"
    # the line named is the row's line in the file, comments counted
    conflicting = tmp_path / "conflicting.csv"
    conflicting.write_text("\n".join(lines + ["# a comment", "",
                                              ",".join(row)]) + "\n")
    rec = tmp_path / "rec.json"
    assert main(["invert", "--model", model, "--symbols", str(conflicting),
                 "--out", str(rec), "--known-geometry"]) == 2
    assert (f"{conflicting}:{len(lines) + 3}: duplicated symbol row with a "
            "different value") in capsys.readouterr().err
    assert not rec.exists()


def test_invert_merges_multiple_symbol_files(tmp_path):
    doc = {
        "minus": {"rho_jet": [1.0, 0.3, 0.1], "cs_jet": [1.0, -0.2, 0.2]},
        "plus": {"rho_jet": [1.3, -0.4, 0.2], "cs_jet": [1.4, 0.5, -0.3]},
        "geometry": {"kappa1": 0.4, "kappa2": -0.3},
    }
    model = _write_model(tmp_path, doc)
    s1, s2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    assert main(["forward", "--model", model, "--out", str(s1),
                 "--grid", "0,0.12,0.24,0.36"]) == 0
    assert main(["forward", "--model", model, "--out", str(s2),
                 "--grid", "0.12,0.24,0.36", "--direction", "0,1"]) == 0
    rec = tmp_path / "rec.json"
    assert main(["invert", "--model", model, "--symbols", str(s1),
                 "--symbols", str(s2), "--out", str(rec)]) == 0
    out = json.loads(rec.read_text())
    assert sorted(out["kappas"]) == pytest.approx([-0.3, 0.4], abs=1e-8)


@pytest.mark.parametrize("kind, field, value", [
    ("elastic", "row", "x"),
    ("elastic", "col", "1.5"),
    ("acoustic", "tau", "0"),
    ("acoustic", "tau", "nan"),
    ("acoustic", "xi1", "inf"),
    ("acoustic", "re_aR", "nan"),
    ("acoustic", "im_aR", "-inf"),
    ("elastic", "re_R", "nan"),
    ("acoustic", "re_aT", "garbage"),
    ("acoustic", "im_aT", ""),
    ("elastic", "re_T", "inf"),
    ("elastic", "im_T", "nan"),
])
def test_bad_symbol_csv_exit2(tmp_path, capsys, kind, field, value):
    # each names the file and line in one message line, and writes no
    # report
    doc = ELASTIC_MODEL if kind == "elastic" else ACOUSTIC_MODEL
    model = _write_model(tmp_path, doc)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    lines = sym.read_text().splitlines()
    row = lines[2].split(",")
    row[lines[0].split(",").index(field)] = value
    lines[2] = ",".join(row)
    sym.write_text("\n".join(lines) + "\n")
    rec = tmp_path / "rec.json"
    rc = main(["invert", "--model", model, "--symbols", str(sym),
               "--out", str(rec), "--known-geometry"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {sym}:3: field '{field}' ")
    assert len(err.strip().splitlines()) == 1
    assert not rec.exists()


def test_elastic_cli_round_trip(tmp_path):
    model = _write_model(tmp_path, ELASTIC_MODEL, "emodel.json")
    sym = tmp_path / "esym.csv"
    rec = tmp_path / "erec.json"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    header = sym.read_text().splitlines()[0]
    assert header == "tau,xi1,xi2,order,row,col,re_R,im_R,re_T,im_T"
    assert main(["invert", "--model", model, "--symbols", str(sym),
                 "--out", str(rec), "--known-geometry"]) == 0
    doc = json.loads(rec.read_text())
    assert doc["kind"] == "elastic"
    assert doc["plus"]["cp_jet"][0] == pytest.approx(2.3, rel=1e-7)


def test_roundtrip_command(tmp_path):
    out = tmp_path / "rt.json"
    assert main(["roundtrip", "--kind", "acoustic", "--depth", "3",
                 "--seed", "42", "--count", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    schemas.validate(doc, "roundtrip_report")
    assert max(doc["max_relative_jet_error_per_order"].values()) <= 1e-6
    assert doc["max_transmission_error"] <= 1e-8


def test_roundtrip_flat_equal_media_exact_zero(tmp_path):
    # transparent interface: every recovered coefficient is exact to
    # round-off and the deeper solves return literal zeros
    side = {"rho_jet": [1.1, 0.4, -0.2], "cs_jet": [0.9, 0.3, 0.1]}
    model = _write_model(tmp_path, {"minus": side, "plus": side})
    out = tmp_path / "rt.json"
    assert main(["roundtrip", "--model", model, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["models"] == 1
    assert max(doc["max_relative_jet_error_per_order"].values()) <= 1e-12


def test_roundtrip_elastic(tmp_path):
    out = tmp_path / "rte.json"
    assert main(["roundtrip", "--kind", "elastic", "--depth", "1",
                 "--seed", "7", "--count", "2", "--grid-count", "5",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "elastic"
    assert max(doc["max_relative_jet_error_per_order"].values()) <= 1e-6


def test_curvature_check_command(tmp_path):
    out = tmp_path / "cc.json"
    assert main(["curvature-check", "--spectra", "1,1;0.5,-0.2",
                 "--max-order", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    schemas.validate(doc, "curvature_report")
    assert doc["max_relative_error"] <= 1e-6
    sphere_rows = [r for r in doc["rows"] if r["kappas"] == [1.0, 1.0]]
    assert sphere_rows[1]["formula"] == pytest.approx(-2.0)
    assert sphere_rows[2]["formula"] == pytest.approx(4.0)


def test_curvature_check_focal_point_flagged(tmp_path):
    out = tmp_path / "cc.json"
    assert main(["curvature-check", "--spectra", "2,-2", "--max-order", "4",
                 "--step", "0.25", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert any("FocalPoint" in row.get("error", "") for row in doc["rows"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "reflectjet.cli", "--help"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    for command in ("forward", "invert", "roundtrip", "curvature-check"):
        assert command in proc.stdout


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["forward", "--model", "model.json", "--out", "x.csv",
     "--grid", "0,0.1,0.2", "--depth", "1"],
])
def test_commands_load_only_what_they_run(tmp_path, argv):
    # numpy, the elastic engine and the inversion load in the commands
    # that use them, not with the CLI
    _write_model(tmp_path, ACOUSTIC_MODEL)
    code = ("import sys, reflectjet.cli\n"
            "try:\n"
            "    code = reflectjet.cli.main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, sorted(name for name in sys.modules if name in\n"
            "    ('numpy', 'reflectjet.elastic', 'reflectjet.inversion')))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    if argv[0] == "forward":
        assert (tmp_path / "x.csv").read_text().count("\n") == 7


def test_tolerance_override_parsing(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    rc = main(["forward", "--model", model, "--out", str(tmp_path / "x.csv"),
               "--tol", "bogus=1"])
    assert rc == 2
    rc = main(["forward", "--model", model, "--out", str(tmp_path / "y.csv"),
               "--grid", "0,0.2", "--tol", "glancing=1e-6"])
    assert rc == 0


def test_cascade_incompatibility_exit3(tmp_path, monkeypatch, capsys):
    doc = {"minus": {"rho_jet": [1.0, 0.3], "cs_jet": [1.0, -0.2],
                     "cp_jet": [2.0, 0.4]},
           "plus": {"rho_jet": [1.4, -0.1], "cs_jet": [1.2, 0.2],
                    "cp_jet": [2.3, -0.3]}}
    model = _write_model(tmp_path, doc, "emodel.json")
    monkeypatch.setattr(elastic, "_COMPAT_RTOL", -1.0)
    rc = main(["forward", "--model", model, "--out", str(tmp_path / "e.csv"),
               "--grid", "0.1,0.2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: CascadeIncompatible: incident P-mode")
    assert len(err.strip().splitlines()) == 1


def test_import_configures_no_logging():
    # REFLECTJET_LOG is read by the CLI's main, not on import
    code = ("import logging, reflectjet, reflectjet.cli; "
            "print(len(logging.getLogger().handlers))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(REFLECTJET_LOG="debug"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_bad_log_level_exit2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REFLECTJET_LOG", "loud")
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    rc = main(["forward", "--model", model, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "REFLECTJET_LOG" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["forward", "--depth", "-1"],
    ["forward", "--tau", "0"],
    ["forward", "--tau", "nan"],
    ["forward", "--grid", "nan"],
    ["forward", "--grid", "0,inf"],
    ["forward", "--direction", "nan,1"],
    ["forward", "--tol", "glancing=-1"],
    ["forward", "--tol", "glancing=nan"],
    ["forward", "--tol", "residual=0"],
    ["forward", "--tol", "root=1e-12"],
    ["roundtrip", "--depth", "-1"],
    ["curvature-check", "--spectra", "1,1", "--step", "0"],
    ["roundtrip", "--grid-count", "0"],
    ["forward", "--jobs", "0"],
    ["curvature-check", "--spectra", "1,1", "--max-order", "-1"],
    ["roundtrip", "--count", "0"],
])
def test_bad_numeric_options_exit2(tmp_path, capsys, argv):
    # each is rejected with one message line, not a traceback and not a
    # silently skipped grid point
    if argv[0] == "forward":
        argv = argv[:1] + ["--model", _write_model(tmp_path, ACOUSTIC_MODEL),
                           "--out", str(tmp_path / "x.csv")] + argv[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


DEPTH2_MODEL = {
    "minus": {"rho_jet": [1.0, 0.3, 0.1], "cs_jet": [1.0, -0.2, 0.1]},
    "plus": {"rho_jet": [1.0, -0.5, 0.1], "cs_jet": [1.6, 0.6, 0.1]},
}


def _with_minus(rho_jet, cs_jet):
    return dict(DEPTH2_MODEL, minus={"rho_jet": rho_jet, "cs_jet": cs_jet})


@pytest.mark.parametrize("model, argv, message", [
    # overflow and division by zero on finite inputs
    (ACOUSTIC_MODEL, ["forward", "--grid", "1e200"], "OverflowError"),
    (ACOUSTIC_MODEL, ["forward", "--tau", "1e200", "--grid", "0.1"],
     "OverflowError"),
    (dict(DEPTH2_MODEL, geometry={"kappa1": 1e200}), ["forward"],
     "OverflowError"),
    (_with_minus([1.0, 0.3, 0.1], [1e-200, -0.2, 0.1]), ["forward"],
     "ZeroDivisionError"),
    (None, ["curvature-check", "--spectra", "1e200,1"], "OverflowError"),
    (None, ["curvature-check", "--spectra", "1,1", "--max-order", "400"],
     "OverflowError"),
    (None, ["roundtrip", "--tau", "1e200", "--count", "1"], "OverflowError"),
    (ACOUSTIC_MODEL, ["invert", "--known-geometry"], "OverflowError"),
    # silently wrong before: a glancing row for a hyperbolic covector whose
    # tau^2/c^2 underflows, and NaN rows
    (ACOUSTIC_MODEL, ["forward", "--tau", "1e-200", "--grid", "0.1"],
     "underflows"),
    (_with_minus([1.0, 1e300, 0.1], [1.0, -0.2, 0.1]),
     ["forward", "--grid", "0.1"], "order -2 at b=0.1 is not finite"),
    (_with_minus([1e-300, 0.3, 0.1], [1.0, -0.2, 0.1]),
     ["forward", "--grid", "0.1"], "order -2 at b=0.1 is not finite"),
    # numpy's overflow warning came before the message line
    ({"minus": {"rho_jet": [1.0, 1e300], "cs_jet": [1.0, -0.2],
                "cp_jet": [2.0, 0.3]},
      "plus": {"rho_jet": [1.4, 0.2], "cs_jet": [1.2, 0.1],
               "cp_jet": [2.3, -0.2]}},
     ["roundtrip", "--depth", "1"], "overflow"),
])
def test_extreme_numbers_exit3(tmp_path, capsys, model, argv, message):
    # finite inputs out of floating-point range give one message line
    # and no output, not a traceback and not a wrong row
    out = tmp_path / "x.out"
    if model is not None:
        path = _write_model(tmp_path, model)
        argv = argv[:1] + ["--model", path] + argv[1:]
    if argv[0] == "invert":
        # symbols of a hyperbolic grid at tau = 1e200
        csv = tmp_path / "s.csv"
        assert main(["forward", "--model", path, "--out", str(csv)]) == 0
        header, *rows = csv.read_text().splitlines()
        scaled = [[repr(float(v) * 1e200) for v in row.split(",")[:2]]
                  + row.split(",")[2:] for row in rows]
        csv.write_text("\n".join([header] + [",".join(r) for r in scaled]))
        argv += ["--symbols", str(csv)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is a second stderr line
        assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
