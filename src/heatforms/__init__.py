"""Heat-representation matrices and Fourier multiplier numerics for the
Beurling-Ahlfors operator on exterior-algebra-valued periodic fields.

The top level exports what the demos use; everything else is imported
from its module (heatforms.fields, heatforms.fourier, ...).
"""

from .asymptotics import (
    aggregate_bound,
    asymptotic_bound,
    asymptotic_constant,
    random_direction,
    sigma_dot_matrix,
    sphere_coordinate_lp_norm,
)
from .exterior import MultiIndex, enumerate_grade, substitute_with_sign, wedge_reorder_oracle
from .fields import cosine_field, lp_norm, random_band_limited
from .fourier import (
    apply_beurling_ahlfors,
    beurling_ahlfors_symbol,
    psw_integral,
    symbol_norms_on_grid,
)
from .heatmatrix import (
    HeatMatrixSpec,
    bound_constants,
    build_grade_matrix,
    closed_form_spectrum,
    in_block,
    out_block,
    spectral_norm,
)
from .multipliers import (
    apply_spectral_multiplier,
    imaginary_power_constant,
    imaginary_power_symbol,
    laplace_symbol_eval,
)
from .normsearch import norm_search
from .stochastic import (
    ito_convergence_study,
    markov_identity_check,
    martingale_transform_experiment,
    simulate_paths,
)

__version__ = "0.1.0"
