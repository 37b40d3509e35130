"""Output checks, run outside the timed region.

Each check compares a program output either with a value computed here,
apart from the program, or with a property the method must have.  A
check raises `CheckFailed` with a message; it returns None when the
output passes.  `selftest.py` shows that each one rejects an output with
one coefficient perturbed by 1e-4.
"""

from __future__ import annotations

import json
import math

R0_RTOL = 1e-12          # order-0 R against the closed form
HOMOGENEITY_RTOL = 1e-11  # order J scales as s^J
DECOUPLING_ATOL = 1e-13   # SH <-> P-SV entries of every elastic order
SCALE = 1.7               # covector scale factor of the homogeneity check
KAPPA_ATOL = 1e-6


class CheckFailed(Exception):
    pass


def closed_form_r0(rho_minus, c_minus, rho_plus, c_plus, b):
    """Order-0 reflection of a scalar wave (acoustic, or elastic SH).

    Written with impedances and incidence cosines: Z = rho c and
    cos(theta) = sqrt(1 - b^2 c^2), R = (Z- cos- - Z+ cos+) / (Z- cos- + Z+ cos+).
    """
    a = rho_minus * c_minus * math.sqrt(1.0 - (b * c_minus) ** 2)
    t = rho_plus * c_plus * math.sqrt(1.0 - (b * c_plus) ** 2)
    return (a - t) / (a + t)


def check_r0(model: dict, b: float, value: complex):
    """`value` is the order-0 reflection at slowness b: acoustic R, or the
    elastic SH entry R33, which depends on rho and cs alone."""
    minus, plus = model["minus"], model["plus"]
    want = closed_form_r0(minus["rho_jet"][0], minus["cs_jet"][0],
                          plus["rho_jet"][0], plus["cs_jet"][0], b)
    gap = abs(complex(value) - want)
    if not gap <= R0_RTOL * max(abs(want), 1e-3):
        raise CheckFailed(f"order-0 reflection at b={b:.6g} is {value!r}, "
                          f"closed form {want!r} (gap {gap:.3e})")


def check_homogeneity(grid, scaled_grid, s: float = SCALE):
    """grid[i][k] and scaled_grid[i][k] are the order -k values (scalars
    or 3x3 arrays) at covector i and at s times it.  The order -k symbol
    is homogeneous of degree -k; the gap is measured against the largest
    order -k value over the grid."""
    for k in range(len(grid[0])):
        a = [v for orders in grid for v in flatten(orders[k])]
        b = [v * s ** k for orders in scaled_grid for v in flatten(orders[k])]
        scale = max(max(abs(v) for v in a), 1e-300)
        gap = max(abs(x - y) for x, y in zip(a, b))
        if not gap <= HOMOGENEITY_RTOL * scale:
            raise CheckFailed(f"order {-k} is not homogeneous of degree {-k} "
                              f"(gap {gap:.3e}, scale {scale:.3e})")


def check_decoupling(matrices):
    """The SH row and column of each 3x3 symbol matrix hold no P-SV
    coupling: covectors lie in the x1-x3 plane, so SH is exactly apart."""
    for k, m in enumerate(matrices):
        worst = max(abs(m[2][0]), abs(m[2][1]), abs(m[0][2]), abs(m[1][2]))
        if not worst <= DECOUPLING_ATOL:
            raise CheckFailed(f"order {-k} couples SH and P-SV "
                              f"(largest entry {worst:.3e})")


def jet_bound(kind: str, depth: int, order: int) -> float:
    """Acceptance bound on the relative error of the recovered jets."""
    if kind == "elastic":
        return 1e-6 if depth == 1 else 1e-5
    return 1e-8 if order <= 1 else 1e-6


def check_recovery(model: dict, plus: dict, kind: str, depth: int):
    """`plus` holds the recovered jets, keyed as in the model JSON."""
    for name, truth in model["plus"].items():
        got = plus[name]
        if len(got) != depth + 1:
            raise CheckFailed(f"{name}: {len(got)} coefficients for depth {depth}")
        for k, (r, t) in enumerate(zip(got, truth)):
            err = abs(r - t) / max(abs(t), 1e-12)
            if not err <= jet_bound(kind, depth, k):
                raise CheckFailed(f"{name}[{k}] recovered as {r!r}, true {t!r} "
                                  f"(relative error {err:.3e})")


def check_kappas(model: dict, kappas):
    truth = sorted((model["geometry"]["kappa1"], model["geometry"]["kappa2"]))
    got = sorted(kappas)
    if len(got) != 2 or not max(abs(a - b) for a, b in zip(got, truth)) <= KAPPA_ATOL:
        raise CheckFailed(f"curvatures recovered as {got}, true {truth}")


def check_same_bytes(first: bytes, again: bytes, what: str):
    if first != again:
        raise CheckFailed(f"{what}: two identical calls wrote different bytes")


def check_schema(doc: dict, schema: dict):
    """Validate with the jsonschema package, apart from the program's own
    validator."""
    import jsonschema

    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"report violates the shipped schema: {exc.message}") from None


def acoustic_csv_r0(model: dict, text: str):
    """Check every order-0 row of an acoustic symbol CSV; returns the
    number of grid points found."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    points = 0
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if int(row["order"]) != 0:
            continue
        tau = float(row["tau"])
        b = math.hypot(float(row["xi1"]), float(row["xi2"])) / tau
        check_r0(model, b, complex(float(row["re_aR"]), float(row["im_aR"])))
        points += 1
    return points


def flatten(value):
    if isinstance(value, complex | float | int):
        return [complex(value)]
    return [complex(v) for row in value for v in row]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
