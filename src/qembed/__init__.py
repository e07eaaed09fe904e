"""Dithered quantized sub-Gaussian random embeddings: mapping, distances,
set geometry, and the Monte Carlo verification harness."""

from .ensembles import (
    Ensemble,
    InvalidArgument,
    SensingMatrix,
    berry_esseen_gap,
    binomial_mad,
    make_ensemble,
    mu_sg,
    mu_sg_exact_binomial,
    psi2_norm,
    sample_matrix,
)
from .quantizer import (
    Dither,
    QuantizedMap,
    QuantizerConfig,
    dithered_floor_exact,
    dithered_floor_mean,
    make_map,
)
from .distances import (
    PreconditionFailed,
    lemma1_check,
    lemma3_check,
    pair_distances,
    pseudo_distance,
    soft_pseudo_distance,
)
from .geometry import (
    EuclideanBall,
    FiniteSet,
    LowRankBall,
    SparseBall,
    WidthEstimate,
    minimal_m,
    sample_point,
    sup_oracle,
    width_estimate,
)
from .experiments import (
    BinomialMadReport,
    ExperimentResult,
    TrialPlan,
    bernoulli_floor_distortion,
    consistency_width_sweep,
    fit_loglog_slope,
    lemma4_diameter_check,
    lemma5_chernoff_check,
    no_dither_counterexample,
    quasi_isometry_sweep,
    section2_bernoulli_floor,
    stirling_gosper_check,
)

__version__ = "0.1.0"
