"""Concentration of the KL loss of add-constant estimators.

Estimators and divergences for discrete distributions, exact seeded
samplers (multinomial, Poissonized counts, and a binomial/Poisson
coupling), closed-form deviation and variance bounds, and a Monte Carlo
harness that verifies the distributional claims.
"""

from .bounds import (
    BoundInputs,
    binomial_inverse_moment,
    binomial_inverse_moment_exact,
    binomial_inverse_moment2_bound,
    binomial_inverse_moment2_exact,
    binomial_product_variance,
    clip_threshold,
    expectation_gap_bound,
    heuristic_kl_std,
    kl_deviation_bound,
    poisson_pmf_at_mean,
    poisson_tail_radius,
    prior_deviation_bound,
    variance_lower_bound,
)
from .distributions import (
    Counts,
    Measure,
    Pmf,
    add_t_estimate,
    empirical_estimate,
    load_pmf,
    pseudo_estimate,
    two_point_pmf,
    uniform_pmf,
    zipf_pmf,
)
from .harness import (
    DistSpec,
    ExperimentConfig,
    TrialSummary,
    chi_square_gof,
    coupling_diagnostic,
    coupling_marginal_gof,
    expected_kl_check,
    poisson_tail_check,
    run_facts_checks,
    run_kl_trials,
    sweep_std_vs_heuristic,
    verify_kl_tail_bound,
    verify_variance_lb,
)
from .losses import (
    adjusted_kl_divergence,
    adjusted_kl_shift,
    adjusted_kl_terms,
    kl_divergence,
    kl_losses,
)
from .sampling import (
    coupled_pairs,
    derive_trial_rng,
    multinomial_counts,
    poissonized_counts,
)

__version__ = "0.1.0"
