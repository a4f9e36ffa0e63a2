"""Two-qubit entanglement measures and conjecture-verification tools.

The package computes three entanglement measures of a two-qubit density
matrix: the concurrence, the negativity, and the binegativity (the
negativity of the negative part of the partial transpose, folded through
the partial transpose once more).  It ships the parametric state families
that extremize those measures, closed forms and bound curves for them,
channel samplers (local, one-way LOCC, PPT), and seeded Monte Carlo /
hill-climb sweeps that hunt for violations of the conjectured bound region
and of channel monotonicity.
"""

__version__ = "0.1.0"

from .channels import (
    ChoiMatrix,
    KrausChannel,
    apply,
    choi_from_kraus,
    haar_isometry,
    haar_unitary,
    is_ppt_channel,
    kraus_from_choi,
    one_way_locc_channel,
    project_to_ppt_channel,
    random_local_channel,
    random_local_unitary_pair,
    random_ppt_channel,
)
from .errors import (
    BinegError,
    DimensionMismatch,
    InfeasibleRegion,
    InvalidState,
    MultipleNegativeEigenvalues,
    NoConvergence,
    NotHermitian,
    NotTracePreserving,
    OutOfRange,
    ParseError,
    WrongDimension,
)
from .harness import (
    SweepReport,
    ViolationRecord,
    counterexample_search,
    figure_data,
    monotonicity_sweep,
    recompute_gap,
    verify_closed_forms,
    verify_ordering,
    verify_region,
)
from .linalg import (
    dagger,
    frobenius_distance,
    hermitian_eig,
    kron,
    negative_part,
    partial_transpose,
    trace,
    transpose_factors,
)
from .measures import (
    MeasureTriple,
    PqrDerived,
    bineg_lower_given_nu,
    bineg_mems,
    binegativity,
    boundary_bineg,
    boundary_p_range,
    c_of_nu,
    closed_form_pqr,
    concurrence,
    measure_triple,
    negative_eigvec_mu,
    negativity,
    nu_of_c,
    region_bounds,
)
from .states import (
    boundary_family,
    is_ppt,
    phi_plus,
    phi_q,
    projector,
    psi_r,
    random_mixed,
    random_pure,
    schmidt,
    sigma_mems,
    sigma_pqr,
    validate_density_matrix,
)
