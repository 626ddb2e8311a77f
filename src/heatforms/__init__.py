"""Heat-representation matrices and Fourier multiplier numerics for the
Beurling-Ahlfors operator on exterior-algebra-valued periodic fields."""

from .asymptotics import (
    UnitDirection,
    aggregate_bound,
    asymptotic_bound,
    asymptotic_constant,
    random_direction,
    sigma_block,
    sigma_dot_matrix,
    sphere_coordinate_lp_norm,
)
from .errors import (
    AccuracyError,
    CapError,
    FFLDError,
    SearchError,
    StatisticalPowerError,
)
from .exterior import (
    MultiIndex,
    enumerate_all,
    enumerate_grade,
    interval_count,
    substitute_with_sign,
    wedge_reorder_oracle,
)
from .fields import (
    FormField,
    TrigSeries,
    cosine_field,
    lp_norm,
    random_band_limited,
    read_ffld,
    write_ffld,
)
from .fourier import (
    PswResult,
    SymbolMatrix,
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    heat_extension,
    psw_integral,
    spectral_gradient,
    symbol_from_heat_matrix,
    symbol_norms_on_grid,
)
from .heatmatrix import (
    BoundReport,
    GradeBound,
    HeatMatrixSpec,
    bound_constants,
    build_full_matrix,
    build_grade_matrix,
    closed_form_spectrum,
    entry,
    grade_norm_closed_form,
    grade_pairs,
    in_block,
    out_block,
    spectral_norm,
)
from .multipliers import (
    SpectralSymbol,
    apply_spectral_multiplier,
    identity_symbol,
    imaginary_power_constant,
    imaginary_power_symbol,
    laplace_symbol_eval,
    laplace_symbol_eval_many,
)
from .normsearch import SearchResult, norm_search
from .stochastic import (
    MarkovCheck,
    MartingalePair,
    PathEnsemble,
    TransformResult,
    ito_convergence_study,
    ito_terminal_check,
    markov_identity_check,
    martingale_transform_experiment,
    simulate_paths,
    transform_walk,
)

__version__ = "0.1.0"
