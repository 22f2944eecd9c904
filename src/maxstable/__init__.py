"""Exchangeable min-stable exponential sequences via boundary mixtures.

Models are pairs (b, mu) of an independence weight and a finite mixture of
unit-mean distribution families.  The package evaluates the associated
stable tail dependence functions and extreme-value copulas, samples the
corresponding random vectors exactly and non-decreasing additive paths with
certified truncation, and cross-checks samplers against the analytic
evaluators by seeded Monte Carlo.
"""

from .errors import NumericError, ResourceError, SpecError
from .families import (
    Cdf,
    Dirac1,
    Discrete,
    DiscreteCdf,
    Exponential,
    Frechet,
    PointMass,
    Rescaled,
    Tilted,
    TwoPoint,
    UnitExponential,
    UnitMeanCdf,
    rescale_to_unit_mean,
    tilt,
)
from .models import CanonicalModel, IdtTriplet, LevySpec, MixingMeasure
from .modelspec import ModelSpec, dump_model, parse_model, parse_triplet
from .samplers import (
    IdtPath,
    PickandsSample,
    sample_conditional_iid,
    sample_conditional_iid_batch,
    sample_idt_path,
    sample_minstable,
    sample_minstable_batch,
    sample_pickands,
    sample_pickands_batch,
)
from .stdf import (
    bernstein_psi,
    check_3margin_ciid,
    copula,
    effective_dim,
    estimate_drift,
    inclusion_exclusion_evaluator,
    inclusion_exclusion_transform,
    pairwise_l2_identity,
    stable_evaluator,
    stable_transform,
    stdf_canonical,
    stdf_extremal,
    stdf_levy,
    weight_vector,
)
from .verify import (
    CSV_HEADER,
    CheckReport,
    exchangeability_check,
    mc_margin_check,
    mc_pickands_check,
    mc_survival_check,
    reports_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "NumericError",
    "ResourceError",
    "SpecError",
    "Cdf",
    "UnitMeanCdf",
    "Dirac1",
    "Frechet",
    "TwoPoint",
    "UnitExponential",
    "Discrete",
    "Tilted",
    "Rescaled",
    "PointMass",
    "Exponential",
    "DiscreteCdf",
    "tilt",
    "rescale_to_unit_mean",
    "CanonicalModel",
    "IdtTriplet",
    "LevySpec",
    "MixingMeasure",
    "ModelSpec",
    "parse_model",
    "parse_triplet",
    "dump_model",
    "IdtPath",
    "PickandsSample",
    "sample_minstable",
    "sample_minstable_batch",
    "sample_pickands",
    "sample_pickands_batch",
    "sample_idt_path",
    "sample_conditional_iid",
    "sample_conditional_iid_batch",
    "weight_vector",
    "effective_dim",
    "stdf_extremal",
    "stdf_canonical",
    "stdf_levy",
    "bernstein_psi",
    "copula",
    "stable_transform",
    "stable_evaluator",
    "inclusion_exclusion_transform",
    "inclusion_exclusion_evaluator",
    "pairwise_l2_identity",
    "estimate_drift",
    "check_3margin_ciid",
    "CSV_HEADER",
    "CheckReport",
    "mc_survival_check",
    "mc_pickands_check",
    "mc_margin_check",
    "exchangeability_check",
    "reports_to_csv",
]
