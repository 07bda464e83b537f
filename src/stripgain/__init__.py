"""Dominance analysis and weighted gain bounds on vertical strips.

The package works with proper rational transfer functions and state-space
models, both with one input and one output: a StateSpace is single-input
single-output by construction (B is n x 1, C 1 x n, D 1 x 1), so every
norm, gain and certificate is of a scalar G.  Norms are taken along
vertical lines Re(s) = -lam for decay rates lam >= 0 and over open strips
of such lines; dominance certificates count and certify eigenvalues right
of a shifted axis, and the two notions combine through a small-gain
feedback test.
"""

import os

# numpy and scipy each load their own OpenBLAS, each with a thread pool
# sized to the machine.  On matrices of at most a few hundred rows the two
# pools only contend, so both libraries are loaded single-threaded unless
# the caller chose a thread count.  The variable is read when each OpenBLAS
# loads and removed again, so os.environ and child processes are unchanged.
if any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    import numpy
    import scipy.linalg
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
        import scipy.linalg
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    DivergentIntegral,
    IllPosed,
    ImproperTransferFunction,
    InvalidInput,
    MarginalRate,
    NoCommonROC,
    NotPDominant,
    NotPDominantAtSlope,
    NumericalFailure,
    PoleInROC,
    PoleInStrip,
    PoleOnLine,
    SingularSylvester,
    StripgainError,
    Unsupported,
    WindowTooShort,
)
from .regions import Line, Strip
from .rational import (
    PartialFractionTerm,
    Polynomial,
    RationalFunction,
    partial_fractions,
    poly_roots,
    recombine,
)
from .statespace import (
    ModalSplit,
    SampledSignal,
    StateSpace,
    convolve,
    impulse_response,
    modal_split,
    realize,
    tf_of,
    weighted_l2_norm,
)
from .stripnorm import (
    NormResult,
    build_hamiltonian,
    decompose_line,
    frequency_response_data,
    h2_line_norm,
    line_norm_bisection,
    line_norm_grid,
    maxmod_slack,
    singular_value_test,
    strip_norm,
)
from .dominance import (
    DominanceCertificate,
    GainCertificate,
    GainLmiReport,
    Inertia,
    RobustDominanceReport,
    SectorGainResult,
    SlopeLoop,
    SmallGainReport,
    classify_attractors,
    dominance_check,
    feedback_compose,
    inertia,
    l2p_gain,
    require_dominance,
    robust_dominance,
    sector_slope_gain,
    slope_closed_loop,
    small_gain_check,
    strip_gain,
    verify_gain_lmi,
)
from .laplace import (
    ANTICAUSAL,
    CAUSAL,
    LaplacePair,
    ROC,
    SignalSpec,
    SignalTerm,
    eval_signal,
    forward,
    inverse,
    roc_options,
)

__version__ = "0.1.0"

__all__ = [
    "ANTICAUSAL",
    "CAUSAL",
    "DivergentIntegral",
    "DominanceCertificate",
    "GainCertificate",
    "GainLmiReport",
    "IllPosed",
    "ImproperTransferFunction",
    "Inertia",
    "InvalidInput",
    "LaplacePair",
    "Line",
    "MarginalRate",
    "ModalSplit",
    "NoCommonROC",
    "NormResult",
    "NotPDominant",
    "NotPDominantAtSlope",
    "NumericalFailure",
    "PartialFractionTerm",
    "PoleInROC",
    "PoleInStrip",
    "PoleOnLine",
    "Polynomial",
    "ROC",
    "RationalFunction",
    "RobustDominanceReport",
    "SampledSignal",
    "SectorGainResult",
    "SignalSpec",
    "SignalTerm",
    "SingularSylvester",
    "SlopeLoop",
    "SmallGainReport",
    "StateSpace",
    "Strip",
    "StripgainError",
    "Unsupported",
    "WindowTooShort",
    "build_hamiltonian",
    "classify_attractors",
    "convolve",
    "decompose_line",
    "dominance_check",
    "eval_signal",
    "feedback_compose",
    "forward",
    "frequency_response_data",
    "h2_line_norm",
    "impulse_response",
    "inertia",
    "inverse",
    "l2p_gain",
    "line_norm_bisection",
    "line_norm_grid",
    "maxmod_slack",
    "modal_split",
    "partial_fractions",
    "poly_roots",
    "realize",
    "recombine",
    "require_dominance",
    "robust_dominance",
    "roc_options",
    "sector_slope_gain",
    "singular_value_test",
    "slope_closed_loop",
    "small_gain_check",
    "strip_gain",
    "strip_norm",
    "tf_of",
    "verify_gain_lmi",
    "weighted_l2_norm",
]
