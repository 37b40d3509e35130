"""Seeded inputs for the three workloads.

The models are built here from `random.Random`, as plain Python floats,
so the program under test receives only generated inputs and a change
to `reflectjet.sampling` cannot change what is measured.  The value and
contrast ranges follow the acceptance criteria they stand for: criterion 1
(acoustic, depth 4, contrast up to 5x), criterion 4 (elastic, depth 1
and 2, contrast up to 2x) and criterion 2 (curved acoustic, depth 2,
contrast 1.3x to 4x, curvatures in [-1, 1]).
"""

from __future__ import annotations

import math
import random

ACOUSTIC_MODELS = 50
ACOUSTIC_DEPTH = 4
ACOUSTIC_GRID = 8

ELASTIC_DEPTHS = (1,) * 16 + (2,) * 2
ELASTIC_GRID = 6

CLI_MODELS = 4
CLI_DEPTH = 2
CLI_GRID = 160

GRID_FRACTION = 0.8  # largest slowness as a share of the critical one


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jet(rng: random.Random, value: float, depth: int) -> list:
    """[value, d1, ..., d_depth]: derivatives of 0.2x to 0.6x the value."""
    out = [value]
    for _ in range(depth):
        out.append(rng.uniform(0.2, 0.6) * value * rng.choice((-1.0, 1.0)))
    return out


def _ratio(rng: random.Random, contrast: float, min_contrast: float) -> float:
    r = math.exp(rng.uniform(math.log(min_contrast), math.log(contrast)))
    return r if rng.random() < 0.5 else 1.0 / r


def acoustic_model(rng, depth, contrast, min_contrast=1.05, curved=False):
    """Model as a dict in the layout of the CLI's model JSON."""
    rho_m = rng.uniform(0.6, 1.6)
    cs_m = rng.uniform(0.7, 1.5)
    model = {
        "minus": {"rho_jet": _jet(rng, rho_m, depth),
                  "cs_jet": _jet(rng, cs_m, depth)},
        "plus": {"rho_jet": _jet(rng, rho_m * _ratio(rng, contrast, min_contrast), depth),
                 "cs_jet": _jet(rng, cs_m * _ratio(rng, contrast, min_contrast), depth)},
        "geometry": {"kappa1": 0.0, "kappa2": 0.0},
        "depth": depth,
    }
    if curved:
        model["geometry"] = {"kappa1": rng.uniform(-1.0, 1.0),
                             "kappa2": rng.uniform(-1.0, 1.0)}
    return model


def elastic_model(rng, depth, contrast=2.0, min_contrast=1.05):
    rho_m = rng.uniform(0.6, 1.6)
    cs_m = rng.uniform(0.7, 1.3)
    cp_m = cs_m * rng.uniform(1.7, 2.2)
    # strong convexity on the plus side: cp^2 > 4/3 cs^2, with a margin
    while True:
        cs_p = cs_m * _ratio(rng, contrast, min_contrast)
        cp_p = cp_m * _ratio(rng, contrast, min_contrast)
        if cp_p > math.sqrt(4.0 / 3.0) * cs_p * 1.05:
            break
    return {
        "minus": {"rho_jet": _jet(rng, rho_m, depth),
                  "cs_jet": _jet(rng, cs_m, depth),
                  "cp_jet": _jet(rng, cp_m, depth)},
        "plus": {"rho_jet": _jet(rng, rho_m * _ratio(rng, contrast, min_contrast), depth),
                 "cs_jet": _jet(rng, cs_p, depth),
                 "cp_jet": _jet(rng, cp_p, depth)},
        "geometry": {"kappa1": 0.0, "kappa2": 0.0},
        "depth": depth,
    }


def critical_slowness(model: dict) -> float:
    """1 / (fastest speed on either side at the interface)."""
    speeds = [side[key][0] for side in (model["minus"], model["plus"])
              for key in ("cs_jet", "cp_jet") if key in side]
    return 1.0 / max(speeds)


def slowness_grid(model: dict, count: int, include_normal: bool = True) -> list:
    """`count` equispaced slowness values on [0, 0.8 b_crit]."""
    top = GRID_FRACTION * critical_slowness(model)
    values = [top * k / (count - 1) for k in range(count)]
    return values if include_normal else values[1:]


def acoustic_flat_d4(seed: int) -> list:
    rng = _rng("acoustic_flat_d4", seed)
    return [acoustic_model(rng, ACOUSTIC_DEPTH, contrast=5.0)
            for _ in range(ACOUSTIC_MODELS)]


def elastic_d1_d2(seed: int) -> list:
    rng = _rng("elastic_d1_d2", seed)
    return [elastic_model(rng, depth) for depth in ELASTIC_DEPTHS]


def cli_curved_d2(seed: int) -> list:
    rng = _rng("cli_curved_d2", seed)
    return [acoustic_model(rng, CLI_DEPTH, contrast=4.0, min_contrast=1.3,
                           curved=True)
            for _ in range(CLI_MODELS)]


MODELS = {
    "acoustic_flat_d4": acoustic_flat_d4,
    "elastic_d1_d2": elastic_d1_d2,
    "cli_curved_d2": cli_curved_d2,
}
