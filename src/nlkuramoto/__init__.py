"""Nonlocal Kuramoto: phase oscillators coupled through a singular power-law
kernel, with the regularized evolutions, their diagnostics, and the
verification harness for the contraction, dissipation and relaxation bounds.
"""

__version__ = "0.1.0"

from .config import (GridConfig, InitialConfig, IntegratorPolicy, OutputConfig, PhysicsConfig,
                     SimConfig, apply_overrides, parse_config, parse_config_text)
from .diagnostics import (DiagnosticsRecord, diameter, dist_sq_to_mean, dual_bound_value,
                          energy_identity_residual, energy_kinetic, energy_potential,
                          fit_decay_rate, mean_phase, min_sinc, poincare_sharp_discrete,
                          seminorm_sq, sin2_seminorm, truncation_functionals,
                          uniform_bound_report)
from .dynamics import bilinear_form, rhs_lattice, rhs_regularized, rhs_singular
from .errors import (BlowUpError, ConfigurationError, GridMismatchError, IterationError,
                     ParameterError, SingularityError)
from .experiments import (refinement_study, relaxation_experiment, restrict_to_coarse,
                          run_invariant_suite, sweep_delta, sweep_epsilon)
from .grid import build_grid, poincare_domain_constant
from .initial import initial_field
from .integrate import select_dt, step
from .kernel import (assemble_kernel_matrix, k_eps_analytic_bound, k_eps_star_analytic_bound,
                     lipschitz_bounds, psi, psi_eps)
from .output import (CSV_COLUMNS, build_manifest, read_diagnostics_csv, read_snapshot,
                     write_diagnostics_csv, write_run_outputs, write_snapshot,
                     write_sweep_outputs)
from .run import build_operators, simulate
