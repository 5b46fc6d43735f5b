"""Nielsen complexity of TFD states of a charged particle in a magnetic field."""

from .complexity import (
    LN6,
    PhysicalParams,
    alpha_of,
    asymptotic_amplitude,
    asymptotic_complexity,
    complexity,
    complexity_rate,
    covariance_g,
    high_T_rate_limit,
    internal_energy,
    lloyd_check,
    oscillation_amplitude,
    relative_spectrum,
)
from .fock import (
    OracleReport,
    commutator_report,
    hamiltonian_matrix,
    ladder_matrix,
    oracle_covariance_1pm,
    tfd_a_sector_state,
)
from .landau import (
    angular_momentum_action,
    energy,
    ladder_action_check,
    laguerre,
    laguerre_norm_integral,
    length_scale,
    wavefunction,
    wavefunction_gram,
)
from .sweep import (
    SweepConfig,
    SweepRange,
    SweepTable,
    finite_difference_rate,
    run_beta_sweep,
    run_lloyd,
    run_omega_sweep,
    run_time_series,
    run_verify,
)

__version__ = "0.1.0"
