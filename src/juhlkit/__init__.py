"""juhlkit: exact verification engine for Juhl's explicit and recursive
formulae for GJMS operators and Q-curvatures.

Everything is computed in exact rational arithmetic.  The closed-form
coefficient families live in ``exact_core``; operator expansions are
noncommutative polynomials (``free_algebra``, ``juhl_core``); brute-force
operator iterations on formal power series (``nc_series``, ``backends``)
and the series-solution machinery (``frobenius``) provide the independent
oracles against which every identity is checked.
"""

from .exact_core import (
    Composition,
    Rational,
    compositions_of,
    factorial,
    m_coeff,
    n_coeff,
    nbar_coeff,
    partial_sums,
)
from .free_algebra import NCPoly, Word
from .nc_series import NCSeries, apply_L, iterate_L_full, iterate_L_partial, x_series
from .frobenius import (
    RecusolveReport,
    apply_Dm,
    c_table,
    compute_F,
    jacobi_P,
    jacobi_Q,
    solve_Dm,
    verify_recusolve,
)
from .juhl_core import (
    IdentityCheck,
    QExpansion,
    apply_operator_expansion,
    expand_P_explicit,
    expand_P_recursive,
    expand_Q_explicit,
    expand_Q_recursive,
    kcoeff,
    kcoeff_closed_form,
    krattenthaler_identity,
    telescope_check,
    verify_kidenb,
)
from .backends import (
    DvIdentityReport,
    EinsteinBackend,
    EinsteinModel,
    MatrixAssignment,
    UnboundOrderError,
    apply_R,
    einstein_invariants,
    evaluate_P,
    evaluate_Q,
    general_binomial,
    oracle_P,
    oracle_P_partial,
    oracle_Q,
    verify_dv_identity,
)

__version__ = "1.0.0"
