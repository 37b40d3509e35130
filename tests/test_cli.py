"""Command-line interface: formats, determinism, exit codes, schemas."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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


_ELASTIC_PLUS = ELASTIC_MODEL["plus"]
_MINUS = ACOUSTIC_MODEL["minus"]

# (id, model JSON, what its message names): the physical checks of the
# model reader, then the shape checks of the shipped schema
BAD_MODELS = [
    ("negative_density",
     dict(ACOUSTIC_MODEL, plus={"rho_jet": [-1.0, 0.0],
                                "cs_jet": [2.0, 0.6]}), "'plus'"),
    ("zero_speed",
     dict(ACOUSTIC_MODEL, minus={"rho_jet": [1.0, 0.3],
                                 "cs_jet": [0.0, -0.2]}), "'minus'"),
    ("not_convex",
     dict(ELASTIC_MODEL, plus=dict(_ELASTIC_PLUS, cp_jet=[1.3])), "'plus'"),
    ("negative_cp",
     dict(ELASTIC_MODEL, plus={"rho_jet": [1.5], "cs_jet": [1.3],
                               "cp_jet": [-3.0]}), "'plus'"),
    # the two sides as a pair: the message names both
    ("mixed_kinds", {"minus": {"rho_jet": [1.0], "cs_jet": [1.0]},
                     "plus": _ELASTIC_PLUS}, "both sides"),
    ("side_depths",
     dict(ACOUSTIC_MODEL, plus={"rho_jet": [1.0], "cs_jet": [2.0]},
          depth=0), "both sides"),
    ("jet_lengths",
     dict(ACOUSTIC_MODEL, minus=dict(_MINUS, cs_jet=[1.0])), "'minus'"),
    ("nan_kappa",
     dict(ACOUSTIC_MODEL, geometry={"kappa1": math.nan}),
     "'geometry' must contain finite numbers"),
    ("no_plus", {"minus": _MINUS}, "'plus'"),
    ("empty_jet",
     dict(ACOUSTIC_MODEL, plus=dict(_MINUS, cs_jet=[])), "plus.cs_jet"),
    ("top_level_list", [ACOUSTIC_MODEL], r"\$: expected object"),
    ("kappa_1", dict(ACOUSTIC_MODEL, geometry={"kappa_1": 0.5}), "kappa_1"),
    ("cpjet", {side: {"rho_jet": [1.0], "cs_jet": [1.0], "cpjet": [2.0]}
               for side in ("minus", "plus")}, "cpjet"),
    ("depth_true", dict(ACOUSTIC_MODEL, depth=True), "depth"),
    ("bool_coefficient",
     dict(ACOUSTIC_MODEL, minus=dict(_MINUS, rho_jet=[1.0, True])),
     r"minus.rho_jet\[1\]"),
    ("unknown_member", dict(ACOUSTIC_MODEL, depht=1), "depht"),
    # JSON integers that the schema accepts but a float cannot hold
    ("big_rho",
     dict(ACOUSTIC_MODEL, plus={"rho_jet": [10 ** 400, -0.5],
                                "cs_jet": [2.0, 0.6]}),
     r"'plus\.rho_jet' must contain finite numbers"),
    ("big_kappa", dict(ACOUSTIC_MODEL, geometry={"kappa1": 10 ** 400}),
     "'geometry' must contain finite numbers"),
]


@pytest.mark.parametrize("doc, member", [case[1:] for case in BAD_MODELS],
                         ids=[case[0] for case in BAD_MODELS])
def test_bad_model_named_in_file_and_dict(tmp_path, capsys, doc, member):
    # a model file exits 2 with one line naming the member and writes
    # nothing; the same dict in-process raises a ParseError naming it
    out = tmp_path / "x.csv"
    assert main(["forward", "--model", _write_model(tmp_path, doc),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert re.search(member, err)
    assert not out.exists()
    with pytest.raises(ParseError, match=member):
        model_from_dict(doc)


@pytest.mark.parametrize("case, message", [
    ("mixed_kinds", "model field 'plus': both sides must be acoustic or both "
                    "elastic (minus acoustic, plus elastic)"),
    ("side_depths", "model field 'plus': both sides must share the jet depth "
                    "(minus 1, plus 0)"),
    ("no_plus", "model field 'plus' is missing"),
], ids=["mixed_kinds", "side_depths", "no_plus"])
def test_pair_checks_name_the_member_and_values(tmp_path, capsys, case,
                                                message):
    # the checks of the two sides as a pair name the plus side and, where
    # there are some, the two values that disagree
    doc = next(d for name, d, _ in BAD_MODELS if name == case)
    assert main(["forward", "--model", _write_model(tmp_path, doc),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ParseError) as info:
        model_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("member, doc", [
    ("minus.cs_jet", {"minus": dict(_MINUS, cs_jet=[1.0, -10 ** 400])}),
    ("geometry", {"minus": _MINUS, "geometry": {"kappa2": 10 ** 400}}),
], ids=["minus_cs_jet", "geometry"])
def test_invert_minus_side_too_large_exit2(tmp_path, capsys, member, doc):
    # a minus-side file whose integer a float cannot hold exits 2 and
    # names the member, as a non-finite number does
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    sym = tmp_path / "sym.csv"
    assert main(["forward", "--model", model, "--out", str(sym),
                 "--grid", "0,0.15,0.3"]) == 0
    capsys.readouterr()
    rec = tmp_path / "rec.json"
    assert main(["invert", "--model", _write_model(tmp_path, doc, "m.json"),
                 "--symbols", str(sym), "--out", str(rec)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: model field '{member}' must contain finite "
                   "numbers\n")
    assert not rec.exists()


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


@pytest.mark.parametrize("doc, grid, skipped", [
    # cs+ = 2: b = 0.5 is glancing for the plus side
    (ACOUSTIC_MODEL, "0.1,0.5",
     "# skipped tau=1.0 xi1=0.5 xi2=0.0 regime=glancing"),
    # cp- = 2: b = 0.9 is past the minus side's P critical slowness
    (ELASTIC_MODEL, "0.1,0.9",
     "# skipped tau=1.0 xi1=0.9 xi2=0.0 regime=evanescent"),
], ids=["acoustic_glancing", "elastic_evanescent"])
def test_forward_writes_skipped_rows(tmp_path, doc, grid, skipped):
    out = tmp_path / "sym.csv"
    assert main(["forward", "--model", _write_model(tmp_path, doc),
                 "--out", str(out), "--grid", grid, "--depth", "0"]) == 0
    assert skipped in out.read_text().splitlines()
    samples, _ = read_symbol_csv(str(out))
    assert len(samples.samples) == 1


def test_forward_skips_a_covector_glancing_on_a_curved_interface(tmp_path):
    # classify_regime calls this covector glancing for the minus side; the
    # engine read |xi'| otherwise and wrote an order -2 of 1.2e22
    doc = {"minus": {"rho_jet": [1.0, 0.2, -0.1], "cs_jet": [1.0, 0.1, 0.05]},
           "plus": {"rho_jet": [1.5, 0.1, 0.2], "cs_jet": [0.5, 0.1, -0.1]},
           "geometry": {"kappa1": 0.5, "kappa2": -0.5}}
    out = tmp_path / "sym.csv"
    assert main(["forward", "--model", _write_model(tmp_path, doc),
                 "--out", str(out), "--grid", "0.9999999995",
                 "--direction", "5,12", "--depth", "2"]) == 0
    assert out.read_text().splitlines() == [
        "tau,xi1,xi2,order,re_aR,im_aR,re_aT,im_aT",
        "# skipped tau=1.0 xi1=0.3846153844230769 xi2=0.9230769226153847 "
        "regime=glancing"]


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


_A_HEAD = "tau,xi1,xi2,order,re_aR,im_aR,re_aT,im_aT\n"
_E_HEAD = "tau,xi1,xi2,order,row,col,re_R,im_R,re_T,im_T\n"

# (id, the symbol CSVs of one run, the message after the last file's name,
# as a pattern)
BAD_SYMBOL_FILES = [
    ("empty", [""], ": empty symbol CSV"),
    ("comments_only", ["# a comment\n"], ": empty symbol CSV"),
    ("unknown_header", ["tau,xi,order\n1,0,0\n"],
     ": unrecognized symbol CSV header"),
    ("no_rows", [_A_HEAD], ": symbol CSV contains no data rows"),
    ("field_count", [_A_HEAD + "1.0,0.0,0.0,0,0.5\n"],
     ":2: expected 8 fields, got 5"),
    ("positive_order", [_A_HEAD + "1.0,0.0,0.0,1,0.5,0.0,1.5,0.0\n"],
     ":2: symbol order must be <= 0"),
    ("row_outside", [_E_HEAD + "1.0,0.0,0.0,0,4,1,0.5,0.0,1.5,0.0\n"],
     ":2: row/col must be in 1..3"),
    ("col_outside", [_E_HEAD + "1.0,0.0,0.0,0,1,0,0.5,0.0,1.5,0.0\n"],
     ":2: row/col must be in 1..3"),
    ("incomplete_matrix", [_E_HEAD + "1.0,0.0,0.0,0,1,1,0.5,0.0,1.5,0.0\n"],
     r": incomplete 3x3 matrix at tau=1.0, xi=\(0.0,0.0\), order 0"),
    ("mixed_kinds", [_A_HEAD + "1.0,0.0,0.0,0,0.5,0.0,1.5,0.0\n",
                     _E_HEAD + "1.0,0.0,0.0,0,1,1,0.5,0.0,1.5,0.0\n"],
     ": mixes elastic data with acoustic"),
]


@pytest.mark.parametrize("texts, message",
                         [case[1:] for case in BAD_SYMBOL_FILES],
                         ids=[case[0] for case in BAD_SYMBOL_FILES])
def test_bad_symbol_files_exit2(tmp_path, capsys, texts, message):
    # each exits 2 with one line that names the file read last, and
    # writes no report
    model = _write_model(tmp_path, ACOUSTIC_MODEL)
    argv = ["invert", "--model", model, "--out", str(tmp_path / "rec.json")]
    for i, text in enumerate(texts):
        path = tmp_path / f"sym{i}.csv"
        path.write_text(text)
        argv += ["--symbols", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(path))}{message}\n", err)
    assert not (tmp_path / "rec.json").exists()


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


@pytest.mark.parametrize("kind", ["acoustic", "elastic"])
def test_roundtrip_curved_recovers_kappas(tmp_path, kind):
    out = tmp_path / "rt.json"
    assert main(["roundtrip", "--kind", kind, "--curved", "--count", "1",
                 "--depth", "1", "--grid-count", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["curved"] is True
    assert doc["max_kappa_error"] <= 1e-10
    assert len(doc["per_model"]) == 1
    assert doc["per_model"][0]["kappa_error"] <= 1e-10


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
    ["curvature-check", "--spectra", "nan,1"],
    ["curvature-check", "--spectra", "1e400,1"],
    ["curvature-check", "--spectra", "1,1;nan"],
    ["curvature-check", "--spectra", ";"],
    ["curvature-check", "--spectra", "1,abc"],
    ["forward", "--grid", "a"],
    ["forward", "--grid", ","],
    ["forward", "--direction", "1"],
    ["forward", "--direction", "0,0"],
    ["forward", "--tol", "residual=abc"],
    ["curvature-check", "--spectra", "1,1", "--step", "1e-300"],
    ["roundtrip", "--seed", "-1"],
    ["forward", "--grid", "1e300", "--tau", "1e300"],
    ["forward", "--depth", "1.5"],
    ["roundtrip", "--count", "x"],
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


@pytest.mark.parametrize("argv, message", [
    (["forward", "--model", "model.json"],
     "error: the following arguments are required: --out"),
    (["bogus"], "error: argument command: invalid choice: 'bogus'"),
    # an option is checked before any file is read
    (["forward", "--model", "missing.json", "--out", "x.csv", "--grid", "a"],
     "error: argument --grid: 'a'"),
])
def test_usage_errors_exit2_in_one_line(tmp_path, monkeypatch, capsys, argv,
                                        message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


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


# --- searched input -----------------------------------------------------------

_ODD = (0.0, -0.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan,
        10 ** 400)


@st.composite
def _cli_cases(draw):
    """A model file's contents, each value in range but at most one, and
    the options of a `forward` run and a `roundtrip` run on it."""
    elastic_model = draw(st.booleans())
    depth = draw(st.integers(0, 2))
    ranges = {"rho_jet": (0.5, 2.0), "cs_jet": (0.5, 1.5),
              "cp_jet": (1.8, 3.0)}
    fields = list(ranges)[:3 if elastic_model else 2]
    doc = {side: {f: [draw(st.floats(*ranges[f]) if k == 0 else
                           st.floats(-1.0, 1.0)) for k in range(depth + 1)]
                  for f in fields} for side in ("minus", "plus")}
    if draw(st.booleans()):
        doc["geometry"] = {k: draw(st.floats(-1.0, 1.0))
                           for k in ("kappa1", "kappa2")}
    if draw(st.booleans()):  # one value out of range
        side = doc[draw(st.sampled_from(["minus", "plus"]))]
        jet = side[draw(st.sampled_from(fields))]
        jet[draw(st.integers(0, depth))] = draw(st.sampled_from(_ODD))
    forward = []
    if draw(st.booleans()):
        grid = draw(st.lists(st.floats(0.0, 1.2), min_size=1, max_size=6))
        forward += ["--grid", ",".join(map(repr, grid))]
    forward += draw(st.sampled_from(
        [[], ["--tau", "-2.0"], ["--tau", "1e-200"], ["--tau", "1e300"],
         ["--direction", "0.6,0.8"], ["--depth", "1"]]))
    roundtrip = ["--grid-count", str(draw(st.integers(2, 6)))]
    return doc, forward, roundtrip


def _cli(argv):
    """`main`'s exit code, or the exception it raised, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: B036 - the search reports it
            code = f"raised {type(exc).__name__}: {exc}"
    return code, err.getvalue()


_FIXED_INPUTS = (  # the three inputs that exited 1 with a traceback before
    (dict(ELASTIC_MODEL, plus={"rho_jet": [1.5], "cs_jet": [1.3],
                               "cp_jet": [-3.0]}), [], []),
    (ACOUSTIC_MODEL, ["--grid", "1e300", "--tau", "1e300"], []),
    (ACOUSTIC_MODEL, [], ["--seed", "-1"]),
)


@example(case=_FIXED_INPUTS[0])
@example(case=_FIXED_INPUTS[1])
@example(case=_FIXED_INPUTS[2])
@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=_cli_cases())
def test_cli_exits_cleanly_on_searched_input(tmp_path, case):
    # `forward` on a searched model file, `invert` on each CSV it writes,
    # and `roundtrip` on the model, one job each: every run exits 0, 2 or
    # 3 without raising, and a failing one writes one `error:` line
    doc, forward, roundtrip = case
    model, csv, out = (str(tmp_path / name)
                       for name in ("model.json", "s.csv", "out.json"))
    with open(model, "w") as fh:
        fh.write(json.dumps(doc))
    runs = [["forward", "--model", model, "--out", csv, "--jobs", "1",
             *forward]]
    runs.append(["roundtrip", "--model", model, "--count", "1", "--out", out,
                 *roundtrip])
    for argv in runs:
        code, err = _cli(argv)
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        elif argv[0] == "forward":
            for known in ([], ["--known-geometry"]):
                code, err = _cli(["invert", "--model", model, "--symbols", csv,
                                  "--out", out, *known])
                assert code in (0, 2, 3), (known, code, err)
                assert not code or (err.startswith("error: ")
                                    and err.count("\n") == 1), err
