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

# (callable, args) pairs outside the callable's domain: each must raise ValueError.
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
    (klconc.add_t_estimate, (np.array([2**63, 1], dtype=np.uint64),)),
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
]


@pytest.mark.parametrize("fn,args", _OUT_OF_DOMAIN, ids=[
    f"{fn.__name__}({','.join(repr(a).replace(' ', '') for a in args)})" for fn, args in _OUT_OF_DOMAIN])
def test_out_of_domain_input_raises(fn, args):
    with pytest.raises(ValueError):
        fn(*args)
