"""Random admissible interface models and hyperbolic covector grids.

Used by the round-trip acceptance suite and the `roundtrip` CLI command.
Derivative coefficients are drawn with magnitudes bounded away from zero
so that relative recovery errors are well defined.
"""

from __future__ import annotations

import math

import numpy as np

from .jets import Jet
from .medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
)


def _jet(rng: np.random.Generator, value: float, depth: int) -> Jet:
    coeffs = [value]
    for _ in range(depth):
        mag = rng.uniform(0.2, 0.6) * abs(value)
        coeffs.append(mag * rng.choice([-1.0, 1.0]))
    return Jet(coeffs)


def _ratio(rng: np.random.Generator, contrast: float, min_contrast: float) -> float:
    lo = max(min_contrast, 1.0)
    r = math.exp(rng.uniform(math.log(lo), math.log(max(contrast, lo * 1.0001))))
    return r if rng.random() < 0.5 else 1.0 / r


def random_acoustic_model(rng: np.random.Generator, depth: int,
                          contrast: float = 5.0, min_contrast: float = 1.05,
                          curved: bool = False) -> InterfaceModel:
    rho_m = rng.uniform(0.6, 1.6)
    cs_m = rng.uniform(0.7, 1.5)
    minus = AcousticSideJet(_jet(rng, rho_m, depth), _jet(rng, cs_m, depth))
    plus = AcousticSideJet(
        _jet(rng, rho_m * _ratio(rng, contrast, min_contrast), depth),
        _jet(rng, cs_m * _ratio(rng, contrast, min_contrast), depth),
    )
    geometry = InterfaceGeometry()
    if curved:
        geometry = InterfaceGeometry(rng.uniform(-1.0, 1.0),
                                     rng.uniform(-1.0, 1.0))
    return InterfaceModel(minus, plus, geometry)


def random_elastic_model(rng: np.random.Generator, depth: int,
                         contrast: float = 2.0, min_contrast: float = 1.05,
                         curved: bool = False) -> InterfaceModel:
    rho_m = rng.uniform(0.6, 1.6)
    cs_m = rng.uniform(0.7, 1.3)
    cp_m = cs_m * rng.uniform(1.7, 2.2)
    # keep convexity (cp^2 > 4/3 cs^2) after independent side contrasts
    while True:
        cs_p = cs_m * _ratio(rng, contrast, min_contrast)
        cp_p = cp_m * _ratio(rng, contrast, min_contrast)
        if cp_p > math.sqrt(4.0 / 3.0) * cs_p * 1.05:
            break
    minus = ElasticSideJet(_jet(rng, rho_m, depth), _jet(rng, cs_m, depth),
                           _jet(rng, cp_m, depth))
    plus = ElasticSideJet(
        _jet(rng, rho_m * _ratio(rng, contrast, min_contrast), depth),
        _jet(rng, cs_p, depth), _jet(rng, cp_p, depth),
    )
    geometry = InterfaceGeometry()
    if curved:
        geometry = InterfaceGeometry(rng.uniform(-1.0, 1.0),
                                     rng.uniform(-1.0, 1.0))
    return InterfaceModel(minus, plus, geometry)


def hyperbolic_grid(model: InterfaceModel, count: int, tau: float = 1.0):
    """Equispaced slowness grid in [0, 0.8 b_crit] as covectors."""
    b_crit = model.critical_slowness()
    bs = np.linspace(0.0, 0.8 * b_crit, count)
    return [Covector(tau, (float(b) * tau, 0.0)) for b in bs]


def cross_grid(model: InterfaceModel, count: int, tau: float = 1.0):
    """Slowness grid along the second tangential axis (no normal-incidence
    duplicate); combined with `hyperbolic_grid` it spans the two
    directions curvature recovery needs."""
    b_crit = model.critical_slowness()
    bs = np.linspace(0.0, 0.8 * b_crit, count)[1:]
    return [Covector(tau, (0.0, float(b) * tau)) for b in bs]
