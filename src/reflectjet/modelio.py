"""File formats: interface-model JSON, symbol CSV, report JSON.

Numeric CSV fields use the shortest round-trippable decimal
representation of binary64 (Python's repr); comment lines start with
'#'.  All JSON emitted by the CLI validates against the schema files
shipped in reflectjet/schemas/, and a model, from a file or an
in-process dict, is checked against model.schema.json before it is
built: the schema decides its shape, and this module only its physics.
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


def _floats(values, member):
    """`values` as finite floats, or a ParseError naming `member`; a JSON
    integer may be too large for a float."""
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        floats = [math.inf]
    if not all(map(math.isfinite, floats)):
        raise ParseError(f"model field '{member}' must contain finite numbers")
    return floats


def _jet_from(obj, field, where):
    return Jet(_floats(obj[field], f"{where}.{field}"))


def side_from_dict(obj, where):
    """One-sided jets from the model JSON ('cp_jet' absent => acoustic)."""
    rho = _jet_from(obj, "rho_jet", where)
    cs = _jet_from(obj, "cs_jet", where)
    try:
        if "cp_jet" in obj:
            return ElasticSideJet(rho, cs, _jet_from(obj, "cp_jet", where))
        return AcousticSideJet(rho, cs)
    except Exception as exc:
        raise ParseError(f"model field '{where}': {exc}") from exc


def geometry_from_dict(obj):
    return InterfaceGeometry(*_floats(
        (obj.get("kappa1", 0.0), obj.get("kappa2", 0.0)), "geometry"))


def _validated(obj, source):
    """`obj` checked against the shipped model schema: an unknown or
    misspelt member would otherwise change the model."""
    try:
        schemas.validate(obj, "model")
    except schemas.SchemaError as exc:
        raise ParseError(f"{source}: {exc}") from None
    return obj


def _model(obj) -> InterfaceModel:
    """The model of a schema-valid dict, whose 'plus' the schema leaves
    optional for the minus-side files of `invert`."""
    minus = side_from_dict(obj["minus"], "minus")
    if "plus" not in obj:
        raise ParseError("model field 'plus' is missing")
    plus = side_from_dict(obj["plus"], "plus")
    geometry = geometry_from_dict(obj.get("geometry", {}))
    try:
        model = InterfaceModel(minus, plus, geometry)
    except Exception as exc:
        raise ParseError(f"model field 'plus': {exc}") from exc
    depth = obj.get("depth", model.depth)
    if depth != model.depth:
        raise ParseError(
            f"model field 'depth' ({depth}) disagrees with the jets "
            f"(depth {model.depth})"
        )
    return model


def model_from_dict(obj) -> InterfaceModel:
    """The model of a model-JSON dict, checked against the shipped
    schema as a model file is."""
    return _model(_validated(obj, "model"))


def model_to_dict(model: InterfaceModel) -> dict:
    return {
        "minus": side_to_dict(model.minus),
        "plus": side_to_dict(model.plus),
        "geometry": {"kappa1": model.geometry.kappa1,
                     "kappa2": model.geometry.kappa2},
        "depth": model.depth,
    }


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc


def load_model(path) -> InterfaceModel:
    return _model(_validated(_load_json(path), path))


def load_minus_side(path):
    """(minus side, geometry) for inversion inputs; 'plus' may be absent."""
    obj = _validated(_load_json(path), path)
    return (side_from_dict(obj["minus"], "minus"),
            geometry_from_dict(obj.get("geometry", {})))


def _fmt(x) -> str:
    return repr(float(x))


def _write_rows(fh, header, entries, cells):
    """The symbol CSV of `entries`, (covector, series or None, regime or
    None) each: a row per order and cell of `cells(R, T)`, each cell
    (row and col fields, R value, T value), or a comment line naming the
    regime of a skipped covector."""
    fh.write(",".join(header) + "\n")
    for cov, series, regime in entries:
        where = [_fmt(cov.tau), _fmt(cov.xi[0]), _fmt(cov.xi[1])]
        if series is None:
            fh.write("# skipped tau={} xi1={} xi2={} regime={}\n".format(
                *where, regime))
            continue
        for j, r, t in series.orders:
            for cell, a_r, a_t in cells(r, t):
                fields = [*where, str(j), *cell, _fmt(a_r.real),
                          _fmt(a_r.imag), _fmt(a_t.real), _fmt(a_t.imag)]
                fh.write(",".join(fields) + "\n")


def write_acoustic_rows(fh, entries):
    """`_write_rows` of acoustic series: an order is one 1x1 cell."""
    _write_rows(fh, ACOUSTIC_HEADER, entries, lambda r, t: [((), r, t)])


def write_elastic_rows(fh, entries):
    """`_write_rows` of elastic series: an order's 3x3 cells, by rows."""
    _write_rows(fh, ELASTIC_HEADER, entries, lambda r, t: [
        ((str(i + 1), str(k + 1)), r[i, k], t[i, k])
        for i in range(3) for k in range(3)])


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
    cells = {}  # (tau, xi1, xi2, order) -> {(row, col): reflection}
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
                cell = (1, 1)  # an acoustic row is a 1x1 matrix
                if this_kind == "elastic":
                    cell = tuple(_parse_int(f, vals[f], path, line_no)
                                 for f in ("row", "col"))
                    if not all(1 <= i <= 3 for i in cell):
                        raise ParseError(
                            f"{path}:{line_no}: row/col must be in 1..3"
                        )
                re_f, im_f = header[-4:-2]  # the reflection
                value = complex(_parse_float(re_f, vals[re_f], path, line_no),
                                _parse_float(im_f, vals[im_f], path, line_no))
                kept = cells.setdefault((tau, xi1, xi2, order), {}).setdefault(
                    cell, value)
                if kept is not value:  # a duplicated row
                    if kept != value:
                        raise ParseError(f"{path}:{line_no}: duplicated "
                                         "symbol row with a different value")
                    dupes += 1
    if dupes and log is not None:
        log.warning("dropped %d duplicated symbol rows", dupes)
    files = ", ".join(map(str, paths))  # what a merged sample came from
    out = []
    for (tau, xi1, xi2, order), entries in cells.items():
        if kind == "acoustic":
            value = entries[1, 1]
        elif len(entries) == 9:
            value = np.array([[entries[r, c] for c in (1, 2, 3)]
                              for r in (1, 2, 3)], dtype=complex)
        else:
            raise ParseError(
                f"{files}: incomplete 3x3 matrix at tau={tau}, "
                f"xi=({xi1},{xi2}), order {order}"
            )
        out.append(SymbolSample(Covector(tau, (xi1, xi2)), order, value))
    if not out:
        raise ParseError(f"{files}: symbol CSV contains no data rows")
    return SymbolSamples(out), kind
