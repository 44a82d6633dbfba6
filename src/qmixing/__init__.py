"""Spectral analysis, contraction coefficients, and cutoff detection for
quantum Markov semigroups in GKLS form."""

from .contraction import (
    CommutingSumBound,
    ContractionEstimate,
    commuting_sum_bound,
    eta_ad_closed_form,
    eta_b_estimate,
    eta_pure_fixpoint_bounds,
    eta_sep_bounds,
    eta_sep_bruteforce,
    eta_tr_estimate,
    tensor_embed_bound,
)
from .cutoff import (
    CutoffCurve,
    CutoffFamily,
    CutoffReport,
    Verdict,
    amplitude_damping_family,
    classify,
    cutoff_curve,
    estimate_cutoff_time,
    family_from_model,
    graph_state_family,
    precutoff_times,
    run_cutoff_experiment,
)
from .errors import (
    CapExceededError,
    ModelFormatError,
    NumericalError,
    ShapeError,
    StateError,
    ToolkitError,
)
from .liouville import (
    LindbladModel,
    Superoperator,
    TensorSumModel,
    TensorSumStructure,
    build_liouvillian,
    channel_at,
    check_channel,
    choi_matrix,
    dual_superop,
    is_completely_positive,
    is_trace_preserving_generator,
    site_operator,
    superop_commutator_norm,
    superop_matrix,
    tensor_sum,
    unvec,
    vec,
)
from .matcore import (
    DESK_SCALE_CAP,
    EigenSystem,
    eig,
    kron,
    mat_exp,
    operator_norm,
    trace_norm,
)
from .metrics import (
    DistancePair,
    bures_distance,
    distance_pair,
    fidelity,
    hubner_form,
    product_distance_bounds,
    prop1_check,
    random_density_matrix,
    random_pure_state,
    trace_distance,
)
from .models import (
    GraphSpec,
    ModelSpec,
    amplitude_damping_model,
    depolarizing_model,
    graph_basis_unitary,
    graph_state_model,
    graph_state_vector,
    load_model,
    path_graph,
    random_primitive_liouvillian,
    save_model,
    stabilizer_operators,
    star_graph,
)
from .spectral import (
    SpectralReport,
    Spectrum,
    asymptotic_projector,
    decay_constants,
    is_primitive,
    norm_bracket,
    occupied_decay_rate,
    spectral_report,
    spectrum,
    stationary_state,
)

__version__ = "0.1.0"
