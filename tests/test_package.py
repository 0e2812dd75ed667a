import importlib
import math
import pkgutil

import numpy as np
import pytest

import klconc


@pytest.mark.parametrize("name", sorted(f"klconc.{m.name}" for m in pkgutil.iter_modules(klconc.__path__)))
def test_every_name_in_all_exists(name):
    # a stale __all__ entry would otherwise fail only under `from klconc.<module> import *`
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", sorted({m.name for m in pkgutil.iter_modules(klconc.__path__)} - {"cli"}))
def test_package_exports_every_module_name(name):
    # `from klconc import X` reaches every public name of every library module, so a module
    # added without a star import in __init__.py fails here
    module = importlib.import_module(f"klconc.{name}")
    assert [attr for attr in module.__all__ if getattr(klconc, attr, None) is not getattr(module, attr)] == []


_HALF = klconc.uniform_pmf(2)

_D = 10**400  # an integer that no int64 and no double holds
_CAPPED = "capped at 9223372036854775807, got "
_GOT_D = "got 10{400}$"

# (callable, args) pairs outside the callable's domain: each must raise ValueError, and where a third entry
# is given, a message that matches it.
_OUT_OF_DOMAIN = [
    *[(bound, args) for bound in (klconc.kl_deviation_bound, klconc.prior_deviation_bound, klconc.clip_threshold)
      for args in [(0, 10, 0.5), (1, 0, 0.5), *[(1, 10, delta) for delta in (0.0, 1.0, -0.1, 1.5)]]],
    (klconc.heuristic_kl_std, (0, 10)),
    (klconc.heuristic_kl_std, (2, 0)),
    (klconc.expectation_gap_bound, (0.5, 10)),
    (klconc.expectation_gap_bound, (1, 0)),
    (klconc.poisson_tail_radius, (3, 0.0)),
    (klconc.poisson_tail_radius, (3, 1.5)),
    (klconc.add_t_estimate, ([-1, 2],)),
    *[(klconc.add_t_estimate, (counts,)) for counts in ([0.5, 1.5], [-0.5, 2], ["3", "4"], [1e19, 1.0])],
    (klconc.add_t_estimate, (np.array([2**63, 1], dtype=np.uint64),), f"^count at index 0 .* >= 0, {_CAPPED}{2**63}$"),
    (klconc.pseudo_estimate, ([0.5, 1.5], 3)),
    (klconc.pseudo_estimate, ([1, 2], 0)),
    (klconc.pseudo_estimate, ([[1, 2]], 5)),
    (klconc.pseudo_estimate, ([], 5)),
    (klconc.adjusted_kl_shift, (0, 3)),
    (klconc.adjusted_kl_divergence, (_HALF, _HALF, 0)),
    (klconc.adjusted_kl_terms, (_HALF, _HALF, 0)),
    (klconc.uniform_pmf, (0,)),
    (klconc.zipf_pmf, (0,)),
    (klconc.zipf_pmf, (2.5,)),
    (klconc.zipf_pmf, (True,)),
    (klconc.uniform_pmf, (2.5,)),
    (klconc.two_point_pmf, (2.5, 0.5)),
    (klconc.derive_trial_rng, (1, 1.5)),
    (klconc.derive_trial_rng, (1.5, 0)),
    (klconc.zipf_pmf, (3, math.inf)),
    (klconc.two_point_pmf, (3, 1.5)),
    (klconc.poisson_pmf_at_mean, (0,)),
    (klconc.binomial_product_variance, (-1,)),
    (klconc.Pmf, ([[0.5, 0.5]],)),
    # the real rule: nan, inf, bools and strings are no probability, size, rate, mass or exponent
    *[(klconc.kl_deviation_bound, args) for args in [(math.nan, 100, 0.1), (True, 100, 0.1), (10, 100, "x")]],
    (klconc.prior_deviation_bound, (10, math.nan, 0.1)),
    (klconc.variance_lower_bound, (math.nan, 100)),
    (klconc.variance_lower_bound, ("x", 100)),
    (klconc.heuristic_kl_std, (10, math.nan)),
    (klconc.heuristic_kl_std, (math.inf, 10)),
    (klconc.expectation_gap_bound, (math.nan, 10)),
    (klconc.clip_threshold, (10, math.nan, 0.1)),
    (klconc.poisson_tail_radius, (np.array([3.0, math.nan]), 0.1)),
    (klconc.adjusted_kl_shift, (math.inf, 3)),
    *[(fn, (10, bad)) for fn in (klconc.two_point_pmf, klconc.zipf_pmf) for bad in (True, "x")],
    (klconc.add_t_estimate, ([1, 1], True)),
    # the integer rule: Bin(2.5, p) is no binomial, and n0 and Poi(n)'s n are integers
    *[(fn, (2.5, 0.5)) for fn in (klconc.binomial_inverse_moment, klconc.binomial_inverse_moments_exact,
                                  klconc.binomial_inverse_moment2_bound)],
    *[(fn, (bad,)) for fn in (klconc.binomial_product_variance, klconc.poisson_pmf_at_mean) for bad in (2.5, math.nan)],
    # the integer rule caps at 2^63 - 1 and the real rule admits doubles only, so _D is no count, size or real
    (klconc.uniform_pmf, (_D,), f"^alphabet size must be an integer >= 1, {_CAPPED}10{{400}}$"),
    (klconc.zipf_pmf, (3, _D), rf"^exponent must lie in \(-inf, inf\), {_GOT_D}"),
    (klconc.Pmf, ([_D],), rf"^weight at index 0 must lie in \[0, inf\), {_GOT_D}"),
    (klconc.Measure, ([_D, 1],), rf"^weight at index 0 must lie in \[0, inf\), {_GOT_D}"),
    (klconc.add_t_estimate, ([2**64, 1],), f"^count at index 0 must be an integer >= 0, {_CAPPED}{2**64}$"),
    (klconc.add_t_estimate, ([1, 2], _D), rf"^smoothing constant must lie in \[0, inf\), {_GOT_D}"),
    (klconc.pseudo_estimate, ([1, 2], _D), rf"^nominal sample size must lie in \[1, inf\), {_GOT_D}"),
    (klconc.run_kl_trials, (_HALF, 10, 4, 1, _D), rf"^smoothing constant must lie in \[0, inf\), {_GOT_D}"),
    (klconc.sweep_std_vs_heuristic, ([2, _D], 100, 10, 1), f"^alphabet size must be an integer >= 1, {_CAPPED}10{{400}}$"),
    *[(fn, (_D, 10, 0.1)[:arity], rf"^alphabet size must lie in \[1, inf\), {_GOT_D}")
      for fn, arity in ((klconc.kl_deviation_bound, 3), (klconc.heuristic_kl_std, 2))],
    (klconc.binomial_inverse_moment, (_D, 0.5), f"^number of trials must be an integer >= 0, {_CAPPED}10{{400}}$"),
    (klconc.poisson_pmf_at_mean, (_D,), f"^Poisson mean must be an integer >= 1, {_CAPPED}10{{400}}$"),
    (klconc.binomial_product_variance, (_D,), f"^pair total must be an integer >= 0, {_CAPPED}10{{400}}$"),
    (klconc.adjusted_kl_shift, (_D, 3), rf"^nominal sample size must lie in \[1, inf\), {_GOT_D}"),
    (klconc.derive_trial_rng, (1, _D), f"^trial index must be an integer >= 0, {_CAPPED}10{{400}}$"),
    # a weight is a real by the real rule and an observed count a real >= 0: strings and bools are neither
    (klconc.Pmf, (["0.5", "0.5"],), r"^weight at index 0 must lie in \[0, inf\), got '0\.5'$"),
    (klconc.Pmf, ([True, False],), r"^weight at index 0 must lie in \[0, inf\), got True$"),
    (klconc.Measure, (["2", 3],), r"^weight at index 0 must lie in \[0, inf\), got '2'$"),
    (klconc.Pmf, ([0.5, -0.5, 1.0],), r"^weight at index 1 must lie in \[0, inf\), got -0\.5$"),
    *[(klconc.poisson_tail_radius, (bad, 0.1), rf"^observed count must lie in \[0, inf\), got {got}$")
      for bad, got in ((True, "True"), (np.array(["3"]), "'3'"), ([3, None], "None"))],
]


def _case_id(fn, args, *_):
    return f"{fn.__name__}({','.join(repr(a).replace(' ', '') for a in args)})".replace(str(_D), "D")


@pytest.mark.parametrize("case", _OUT_OF_DOMAIN, ids=[_case_id(*case) for case in _OUT_OF_DOMAIN])
def test_out_of_domain_input_raises(case):
    fn, args, *match = case
    with pytest.raises(ValueError, match=match[0] if match else None):
        fn(*args)
