"""Command-line interface: formats, determinism, exit codes, schemas."""

import json
import subprocess
import sys

import pytest

from conftest import child_env
from reflectjet import elastic, schemas
from reflectjet.cli import main
from reflectjet.modelio import (
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


def test_invert_missing_order_exit3(tmp_path):
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3", "--depth", "0"]) == 0
    rc = main(["invert", "--model", model, "--symbols", str(sym),
               "--out", str(tmp_path / "rec.json"), "--depth", "1",
               "--known-geometry"])
    assert rc == 3


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
    ["forward", "--tol", "root=0"],
    ["roundtrip", "--depth", "-1"],
    ["curvature-check", "--spectra", "1,1", "--step", "0"],
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
