"""Numerical lab for a fifth-order Boussinesq system with delayed boundary feedback."""

from .certificate import (StabilityCertificate, build_certificate, check_gains,
                          choose_mu2, decay_constants, f_of_mu1, g_of_mu1,
                          optimal_mu1, phi_matrix, psi_matrix)
from .config import RunSettings, initial_profile, parse_config, serialize_config
from .delay_line import HistoryLine, delayed_trace, transport_residual, z_profile
from .energy import dissipation_residual, energy, kato_identity_residual, lyapunov
from .errors import (BousslabError, CertificationError, ConfigurationError,
                     HistoryUnderrunError, InadmissibleGainsError,
                     InconsistentParametersError, NonlinearDivergenceError,
                     NumericalError)
from .operators import OperatorSet, build_operators, trace_eta_xx_L
from .params import (DelaySpec, Grid, SystemParams, ValidationReport,
                     constant_history, tau_at, validate_params)
from .report import RunReport, bound_check, fit_decay
from .stepping import (SimState, StepConfig, Stepper, initial_state, run,
                       slow_mode_state, suggested_theta)

__version__ = "0.1.0"
