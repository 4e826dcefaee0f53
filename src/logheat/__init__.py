"""logheat: log-concavity of Gaussian-smoothed measures, curvature envelopes,
Lipschitz heat-flow transport maps, and reverse-diffusion sampling."""

from .bounds import (
    PerturbationParams,
    compact_support_lower,
    cor7_envelope,
    example3_limit_check,
    integrated_ou_upper,
    log_concavity_time,
    lsi_transfer,
    mixture_hessian_lower,
    thm2_envelope,
    transport_constants,
)
from .counterexample import (
    Certificate,
    TwoAtomReport,
    build_counterexample,
    split_function_F,
    two_atom_analysis,
    variance_certificate,
)
from .errors import (
    BracketError,
    CapabilityError,
    DomainError,
    LogheatError,
    NumericalError,
    PreconditionError,
    SearchError,
    ValidationError,
)
from .heatflow import (
    TiltedMoments,
    lemma1_check,
    log_hessian_heat,
    ou_log_derivatives,
    tilted_log_mass,
    tilted_moments,
    wasserstein2_1d,
)
from .measures import (
    AtomicMeasure,
    CounterexampleMeasure,
    GaussianMixture,
    PerturbedLogConcave1D,
    cdf_1d,
    convolve_gaussian,
    dilate,
    log_density,
    log_hessian,
    make_gaussian_mixture,
    make_perturbed,
    mean_variance_1d,
    measure_from_json,
    sample,
    score,
    standard_gaussian,
)
from .numerics import find_root
from .structure import (
    Decomposition,
    Infeasible,
    MixtureAnalysis,
    analyze_mixture_1d,
    lemma4_decompose,
)
from .transport import (
    FlowMap,
    LipschitzEstimate,
    PushforwardReport,
    ThetaEnvelope,
    build_flow_map,
    empirical_lipschitz,
    pushforward_validate,
    reverse_sde_sample,
    theta_envelope,
)

__version__ = "0.1.0"
