"""File formats: interface-model JSON, symbol CSV, report JSON.

Numeric CSV fields use the shortest round-trippable decimal
representation of binary64 (Python's repr); comment lines start with
'#'.  All JSON emitted by the CLI validates against the schema files
shipped in reflectjet/schemas/.
"""

from __future__ import annotations

import csv
import json
import math

from . import schemas
from .errors import ParseError
from .jets import Jet
from .medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    side_to_dict,
)

ACOUSTIC_HEADER = ["tau", "xi1", "xi2", "order", "re_aR", "im_aR", "re_aT", "im_aT"]
ELASTIC_HEADER = ["tau", "xi1", "xi2", "order", "row", "col",
                  "re_R", "im_R", "re_T", "im_T"]


def _jet_from(obj, field, where):
    try:
        coeffs = obj[field]
    except KeyError:
        raise ParseError(f"model field '{where}.{field}' is missing") from None
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError(f"model field '{where}.{field}' must be a non-empty array")
    try:
        coeffs = [float(c) for c in coeffs]
    except (TypeError, ValueError):
        coeffs = [math.nan]
    if not all(map(math.isfinite, coeffs)):
        raise ParseError(
            f"model field '{where}.{field}' must contain finite numbers"
        )
    return Jet(coeffs)


def side_from_dict(obj, where):
    """One-sided jets from the model JSON ('cp_jet' absent => acoustic)."""
    if not isinstance(obj, dict):
        raise ParseError(f"model field '{where}' must be an object")
    rho = _jet_from(obj, "rho_jet", where)
    cs = _jet_from(obj, "cs_jet", where)
    try:
        if "cp_jet" in obj:
            return ElasticSideJet(rho, cs, _jet_from(obj, "cp_jet", where))
        return AcousticSideJet(rho, cs)
    except Exception as exc:
        raise ParseError(f"model field '{where}': {exc}") from exc


def geometry_from_dict(obj):
    if obj is None:
        return InterfaceGeometry()
    if not isinstance(obj, dict):
        raise ParseError("model field 'geometry' must be an object")
    try:
        return InterfaceGeometry(float(obj.get("kappa1", 0.0)),
                                 float(obj.get("kappa2", 0.0)))
    except (TypeError, ValueError):
        raise ParseError("model field 'geometry' must contain numbers") from None


def model_from_dict(obj) -> InterfaceModel:
    if not isinstance(obj, dict):
        raise ParseError("model JSON must be an object")
    minus = side_from_dict(obj.get("minus"), "minus")
    plus = side_from_dict(obj.get("plus"), "plus")
    geometry = geometry_from_dict(obj.get("geometry"))
    depth = obj.get("depth")
    try:
        model = InterfaceModel(minus, plus, geometry)
    except Exception as exc:
        raise ParseError(f"inconsistent model: {exc}") from exc
    if depth is not None and depth != model.depth:
        raise ParseError(
            f"model field 'depth' ({depth}) disagrees with the jets "
            f"(depth {model.depth})"
        )
    return model


def model_to_dict(model: InterfaceModel) -> dict:
    return {
        "minus": side_to_dict(model.minus),
        "plus": side_to_dict(model.plus),
        "geometry": {"kappa1": model.geometry.kappa1,
                     "kappa2": model.geometry.kappa2},
        "depth": model.depth,
    }


def _load_json(path):
    """A model JSON file, checked against the shipped model schema: an
    unknown or misspelt member would otherwise change the model."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        schemas.validate(obj, "model")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    except schemas.SchemaError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return obj


def load_model(path) -> InterfaceModel:
    return model_from_dict(_load_json(path))


def load_minus_side(path):
    """(minus side, geometry) for inversion inputs; 'plus' may be absent."""
    obj = _load_json(path)
    minus = side_from_dict(obj.get("minus"), "minus")
    return minus, geometry_from_dict(obj.get("geometry"))


def _fmt(x) -> str:
    return repr(float(x))


def write_acoustic_rows(fh, entries):
    """entries: (covector, series-or-None, regime-string-or-None)."""
    fh.write(",".join(ACOUSTIC_HEADER) + "\n")
    for cov, series, regime in entries:
        if series is None:
            fh.write(f"# skipped tau={_fmt(cov.tau)} xi1={_fmt(cov.xi[0])} "
                     f"xi2={_fmt(cov.xi[1])} regime={regime}\n")
            continue
        for j, a_r, a_t in series.orders:
            fields = [_fmt(cov.tau), _fmt(cov.xi[0]), _fmt(cov.xi[1]), str(j),
                      _fmt(a_r.real), _fmt(a_r.imag),
                      _fmt(a_t.real), _fmt(a_t.imag)]
            fh.write(",".join(fields) + "\n")


def write_elastic_rows(fh, entries):
    fh.write(",".join(ELASTIC_HEADER) + "\n")
    for cov, series, regime in entries:
        if series is None:
            fh.write(f"# skipped tau={_fmt(cov.tau)} xi1={_fmt(cov.xi[0])} "
                     f"xi2={_fmt(cov.xi[1])} regime={regime}\n")
            continue
        for j, r, t in series.orders:
            for row in range(3):
                for col in range(3):
                    fields = [_fmt(cov.tau), _fmt(cov.xi[0]), _fmt(cov.xi[1]),
                              str(j), str(row + 1), str(col + 1),
                              _fmt(r[row, col].real), _fmt(r[row, col].imag),
                              _fmt(t[row, col].real), _fmt(t[row, col].imag)]
                    fh.write(",".join(fields) + "\n")


def _parse_float(field, value, path, line_no):
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(
            f"{path}:{line_no}: field '{field}' is not a finite number: "
            f"{value!r}"
        )
    return x


def _parse_int(field, value, path, line_no):
    try:
        return int(value)
    except ValueError:
        raise ParseError(
            f"{path}:{line_no}: field '{field}' is not an integer: {value!r}"
        ) from None


def read_symbol_csv(paths, log=None):
    """SymbolSamples (reflection side) from one or more symbol CSV files.

    Duplicated rows are dropped with a warning, and a duplicate with a
    different value is a ParseError; acoustic/elastic kind is detected
    from the header and must agree across files.  Returns
    (samples, kind).
    """
    # numpy and the inversion load only with the commands that read symbols
    import numpy as np

    from .inversion import SymbolSample, SymbolSamples

    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    kind = None
    scalar = {}
    matrices = {}
    dupes = 0
    for path in paths:
        with open(path, newline="") as fh:
            # each data line with its number in the file
            numbered = [(n, line) for n, line in enumerate(fh, start=1)
                        if line.strip() and not line.startswith("#")]
            reader = csv.reader(line for _, line in numbered)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty symbol CSV") from None
            header = [h.strip() for h in header]
            if header == ACOUSTIC_HEADER:
                this_kind = "acoustic"
            elif header == ELASTIC_HEADER:
                this_kind = "elastic"
            else:
                raise ParseError(f"{path}: unrecognized symbol CSV header")
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise ParseError(f"{path}: mixes {this_kind} data with {kind}")
            for (line_no, _), row in zip(numbered[1:], reader):
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{line_no}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                vals = {h: v for h, v in zip(header, row)}
                tau = _parse_float("tau", vals["tau"], path, line_no)
                if tau == 0.0:
                    raise ParseError(f"{path}:{line_no}: field 'tau' must be "
                                     "nonzero")
                xi1 = _parse_float("xi1", vals["xi1"], path, line_no)
                xi2 = _parse_float("xi2", vals["xi2"], path, line_no)
                order = _parse_int("order", vals["order"], path, line_no)
                if order > 0:
                    raise ParseError(
                        f"{path}:{line_no}: symbol order must be <= 0"
                    )
                for field in header[-2:]:  # the transmission: checked, unused
                    _parse_float(field, vals[field], path, line_no)
                key = (tau, xi1, xi2, order)
                if this_kind == "acoustic":
                    value = complex(
                        _parse_float("re_aR", vals["re_aR"], path, line_no),
                        _parse_float("im_aR", vals["im_aR"], path, line_no))
                    kept = scalar.setdefault(key, value)
                else:
                    row_i = _parse_int("row", vals["row"], path, line_no) - 1
                    col_i = _parse_int("col", vals["col"], path, line_no) - 1
                    if not (0 <= row_i < 3 and 0 <= col_i < 3):
                        raise ParseError(
                            f"{path}:{line_no}: row/col must be in 1..3"
                        )
                    value = complex(
                        _parse_float("re_R", vals["re_R"], path, line_no),
                        _parse_float("im_R", vals["im_R"], path, line_no))
                    entry = matrices.setdefault(
                        key, np.full((3, 3), np.nan, dtype=complex))
                    kept = entry[row_i, col_i]
                    if math.isnan(kept.real):
                        kept = entry[row_i, col_i] = value
                if kept is not value:  # a duplicated row
                    if kept != value:
                        raise ParseError(f"{path}:{line_no}: duplicated "
                                         "symbol row with a different value")
                    dupes += 1
    if dupes and log is not None:
        log.warning("dropped %d duplicated symbol rows", dupes)
    out = []
    if kind == "acoustic":
        for (tau, xi1, xi2, order), value in scalar.items():
            out.append(SymbolSample(Covector(tau, (xi1, xi2)), order, value))
    else:
        for (tau, xi1, xi2, order), value in matrices.items():
            if np.isnan(value.real).any():
                raise ParseError(
                    f"incomplete 3x3 matrix at tau={tau}, xi=({xi1},{xi2}), "
                    f"order {order}"
                )
            out.append(SymbolSample(Covector(tau, (xi1, xi2)), order, value))
    if not out:
        raise ParseError("symbol CSV contains no data rows")
    return SymbolSamples(out), kind
