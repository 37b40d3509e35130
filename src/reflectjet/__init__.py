"""Forward/inverse engine for wave scattering at a material interface.

Forward: the full asymptotic symbol of the acoustic and isotropic-elastic
reflection and transmission operators at a covector, with interface
curvature corrections.  Inverse: reconstruction of the normal-derivative
jet of density and wave speeds below the interface, plus the principal
curvatures, from sampled reflection-symbol data.
"""

from .jets import Jet, jet_inv, jet_log, jet_mul
from .geometry import (
    CurvatureSpectrum,
    mean_curvature_normal_derivatives,
)
from .medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    Regime,
    SymbolSeries,
    classify_regime,
    derive_lame_jets,
    vertical_wavenumber,
)
from .acoustic import (
    flux_residual,
    forward_symbols,
    principal_rt,
)


def __getattr__(name):
    """The elastic and inversion names, loaded on first access: they need
    numpy, which importing the package does not load."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import elastic, inversion

    return getattr(elastic if hasattr(elastic, name) else inversion, name)


__version__ = "0.1.0"

__all__ = [
    "Jet",
    "jet_mul",
    "jet_log",
    "jet_inv",
    "CurvatureSpectrum",
    "mean_curvature_normal_derivatives",
    "AcousticSideJet",
    "ElasticSideJet",
    "InterfaceGeometry",
    "InterfaceModel",
    "Covector",
    "Regime",
    "classify_regime",
    "vertical_wavenumber",
    "derive_lame_jets",
    "SymbolSeries",
    "forward_symbols",
    "principal_rt",
    "flux_residual",
    "principal_rt_matrices",
    "sh_reflection",
    "forward_symbols_elastic",
    "SymbolSample",
    "SymbolSamples",
    "RecoveryReport",
    "acoustic_recover_order0",
    "acoustic_recover_jets",
    "acoustic_recover_relative",
    "elastic_recover_order0",
    "elastic_recover_jets",
]
