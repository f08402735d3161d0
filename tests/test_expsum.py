"""Exponential-sum construction, evaluation and certified bounds."""

import copy
import functools
import math
import pickle

import numpy as np
import pytest

from fracsum.cli import XI_GRID
from fracsum.expsum import (
    ExpSumParams,
    _a_posteriori_bound,
    _params_at,
    best_expsum,
    build_expsum,
    certified_bound,
    evaluate,
    expsum_to_text,
    integrand_g,
    params_for_terms,
    select_params,
    strip_norm_bound,
    total_error_bound,
)

from _oracles import log_abs_g, paper_closed_form_bound, ref_power


class TestIntegrand:
    def test_value_at_origin(self):
        # exp(-(log 2)^2)/2, high-precision reference frozen
        g = integrand_g(0.0, 1.0, 0.5)
        assert g.imag == 0.0
        assert g.real == pytest.approx(0.3092515689007880, rel=1e-14)

    def test_far_negative_axis_decay(self):
        g = integrand_g(-40.0, 1.0, 0.5)
        assert abs(g) <= math.exp(-40.0)
        assert abs(g) == pytest.approx(math.exp(-40.0), rel=1e-8)

    def test_positive_strip_bound_example(self):
        # gamma = 5, d = pi/16, alpha = 0.25, xi = 1: the decay bound gives
        # log|g| <= -5**4 * cos(d / (0.25*5)); both sides frozen from a
        # high-precision evaluation
        tau = complex(5.0, math.pi / 16.0)
        lg = log_abs_g(tau, 1.0, 0.25)
        bound = -(5.0**4) * math.cos((math.pi / 16.0) / (0.25 * 5.0))
        assert bound == pytest.approx(-617.3052128719611, rel=1e-13)
        assert lg == pytest.approx(-622.5869949627033, rel=1e-12)
        assert lg <= bound

    def test_log_helper_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tau = complex(rng.uniform(-5, 2), rng.uniform(-2.5, 2.5))
            xi = rng.uniform(0.5, 3.0)
            alpha = rng.uniform(0.25, 0.9)
            direct = abs(integrand_g(tau, xi, alpha))
            assert direct > 0.0
            assert math.log(direct) == pytest.approx(log_abs_g(tau, xi, alpha), rel=1e-10, abs=1e-10)

    def test_overflow_safe_far_from_origin(self):
        assert abs(integrand_g(900.0, 1.0, 0.5)) == 0.0
        assert abs(integrand_g(-900.0, 1.0, 0.5)) == 0.0

    @pytest.mark.parametrize("tau, alpha", [(1e5, 0.01), (1e80, 0.01), (1e80, 0.25)])
    def test_overflowing_power_rejected(self, tau, alpha):
        # the power raises OverflowError or, at an integral 1/alpha, turns into NaN
        with pytest.raises(ValueError, match=r"^log\(1 \+ exp\(tau\)\)\*\*\(1/alpha\) is not finite"):
            integrand_g(complex(tau, 0.001), 1.0, alpha)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integrand_g(complex(0.0, math.pi), 1.0, 0.5)
        with pytest.raises(ValueError):
            integrand_g(complex(1.0, -3.5), 1.0, 0.5)
        with pytest.raises(ValueError):
            integrand_g(0.0, 1.0, 1.5)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tau = complex(rng.uniform(-6, 4), rng.uniform(0, 3.0))
            xi = rng.uniform(0.5, 10.0)
            alpha = rng.uniform(0.15, 0.95)
            a = abs(integrand_g(tau, xi, alpha))
            b = abs(integrand_g(tau.conjugate(), xi, alpha))
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("alpha", [0.006, 0.001, 1e-8])
def test_too_small_alpha_rejected(alpha):
    # h**(-(alpha+1)/alpha) in the certified n_plus minimum overflows
    for build in (lambda: select_params(alpha, 1e-6), lambda: params_for_terms(alpha, 200)):
        with pytest.raises(ValueError, match=r"^alpha = .* is too small: the n_plus minimum overflows"):
            build()


class TestSelectParams:
    def test_golden_values(self):
        p = select_params(0.5, 1e-6)
        assert p.d == pytest.approx(math.pi / 16.0, rel=1e-15)
        assert p.h == pytest.approx(0.08929822354085744, rel=1e-14)
        assert p.n_minus == 155
        assert p.n_plus == 50
        assert p.beta == pytest.approx(math.cos(math.pi / 4.0), rel=1e-15)
        assert p.n_terms == 206

    def test_boundary_eps_accepted_quietly(self):
        # one bound holds for every eps, so the paper's exp(-pi^2/4) is no cap
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            select_params(0.5, math.exp(-math.pi**2 / 4.0))

    def test_loose_eps_flagged(self):
        # a target far above exp(-pi^2/4) is no longer flagged with a warning:
        # the general strip bound is certified there too, and covers both the
        # a-posteriori certificate and the measured error
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = select_params(0.999, 0.5)
        es = build_expsum(p)
        xi = np.logspace(0.0, 8.0, 401)
        err = float(np.max(np.abs(evaluate(es, xi) - xi**-0.999)))
        assert err <= certified_bound(es) <= total_error_bound(p)

    @pytest.mark.parametrize(
        "alpha,eps", [(0.0, 1e-4), (1.0, 1e-4), (1.2, 1e-4), (0.5, 0.0), (0.5, -1.0), (0.5, 1.0), (0.5, 1e-320)]
    )
    def test_invalid_arguments(self, alpha, eps):
        with pytest.raises(ValueError):
            select_params(alpha, eps)

    def test_params_invariants_enforced(self):
        p = select_params(0.25, 1e-8)
        with pytest.raises(ValueError):
            ExpSumParams(p.alpha, p.eps, p.d, p.n_minus - 1, p.n_plus)
        with pytest.raises(ValueError):
            ExpSumParams(p.alpha, p.eps, p.d * 2.0, p.n_minus, p.n_plus)
        # the step 2*pi*d/log(1/eps) is defined only for 0 < eps < 1
        with pytest.raises(ValueError, match=r"^eps must be in \[2.22507e-308, 1\), got 1.0$"):
            ExpSumParams(p.alpha, 1.0, p.d, p.n_minus, p.n_plus)
        # t_{-190} = log1p(exp(-190))**4 underflows to 0 at h = 1
        d = math.pi * 0.25 / 8.0
        with pytest.raises(ValueError, match="positive normal"):
            ExpSumParams(0.25, math.exp(-2.0 * math.pi * d), d, 190, 1)


class TestParamsForTerms:
    @pytest.mark.parametrize("n", [5, 20, 100, 200, 731])
    def test_exact_term_count(self, n):
        p = params_for_terms(0.5, n)
        assert p.n_terms == n
        # padding never undercuts the certified minima
        assert p.n_minus >= 2.0 * math.pi * p.d / p.h**2 - 1e-9

    def test_minimum_budget(self):
        assert params_for_terms(0.25, 3).n_terms == 3
        with pytest.raises(ValueError):
            params_for_terms(0.25, 2)

    def test_padding_only_improves(self):
        # same step size as the unpadded base, so the certified bound is shared
        base = params_for_terms(0.75, 50)
        bigger = params_for_terms(0.75, 60)
        assert bigger.n_terms == 60
        es_base = build_expsum(base)
        es_big = build_expsum(bigger)
        xi = np.logspace(0, 6, 50)
        err_base = np.max(np.abs(evaluate(es_base, xi) - xi**-0.75))
        err_big = np.max(np.abs(evaluate(es_big, xi) - xi**-0.75))
        assert err_big <= err_base * 1.01


class TestBuildAndEvaluate:
    def test_weight_exponent_closed_forms_at_origin(self):
        # the j = 0 weight/exponent have closed forms independent of counts
        for alpha, eps in [(0.5, 1e-4), (0.25, 1e-6)]:
            p = select_params(alpha, eps)
            es = build_expsum(p)
            j0 = p.n_minus
            assert es.weights[j0] == pytest.approx(p.h / (alpha * math.gamma(alpha)) * 0.5, rel=1e-14)
            assert es.exponents[j0] == pytest.approx(math.log(2.0) ** (1.0 / alpha), rel=1e-14)

    def test_positive_increasing(self):
        es = build_expsum(select_params(0.5, 1e-4))
        assert np.all(es.weights > 0.0)
        assert np.all(np.diff(es.exponents) > 0.0)

    def test_accuracy_at_large_argument(self):
        p = select_params(0.25, 1e-8)
        es = build_expsum(p)
        ref = ref_power(1e3, 0.25)
        assert ref == pytest.approx(0.1778279410038923, rel=1e-14)
        assert abs(evaluate(es, 1e3) - ref) <= total_error_bound(p)

    def test_reference_points(self):
        cases = [
            (1.0, 0.5, 1e-10, 1.0),
            (1e6, 0.75, 1e-10, 3.162277660168379e-05),
            (math.e, 0.25, 1e-10, 0.7788007830714049),
        ]
        for xi, alpha, eps, frozen in cases:
            p = select_params(alpha, eps)
            es = build_expsum(p)
            ref = ref_power(xi, alpha)
            assert ref == pytest.approx(frozen, rel=1e-14)
            assert abs(evaluate(es, xi) - ref) <= total_error_bound(p)

    def test_evaluate_matches_quadrature_algebra(self):
        # weight/exponent factorization is exact algebra: the sum must agree
        # with h * sum_j g(j*h) / (alpha*Gamma(alpha)) to ulp scale
        p = select_params(0.4, 1e-5)
        es = build_expsum(p)
        rng = np.random.default_rng(11)
        scale = p.h / (p.alpha * math.gamma(p.alpha))
        for xi in rng.uniform(1.0, 100.0, 20):
            direct, comp = 0.0, 0.0
            for j in range(-p.n_minus, p.n_plus + 1):
                term = scale * integrand_g(j * p.h, xi, p.alpha).real
                y = term - comp
                t = direct + y
                comp = (t - direct) - y
                direct = t
            val = evaluate(es, xi)
            assert abs(val - direct) <= 8.0 * math.ulp(abs(val))

    def test_vectorized_evaluation_matches_scalar(self):
        es = build_expsum(select_params(0.75, 1e-6))
        xi = np.array([1.0, 2.5, 19.0, 1e4])
        vec_result = evaluate(es, xi)
        for i, x in enumerate(xi):
            assert vec_result[i] == evaluate(es, float(x))


@functools.lru_cache(maxsize=None)
def cached_best(alpha, n_terms):
    return best_expsum(alpha, n_terms)


class TestBestExpsum:
    # reaches past the certificate's last cell for every case below
    XI = np.logspace(0.0, 45.0, 9001)
    CASES = [(alpha, n) for alpha in (0.25, 0.5, 0.75) for n in (3, 30, 200)]

    @pytest.mark.parametrize("alpha, n_terms", CASES)
    def test_sampled_error_within_certificate(self, alpha, n_terms):
        es = cached_best(alpha, n_terms)
        assert es.n_terms == n_terms
        err = float(np.max(np.abs(evaluate(es, self.XI) - self.XI ** (-alpha))))
        assert err <= certified_bound(es)

    @pytest.mark.parametrize("alpha, n_terms", CASES)
    def test_certificate_within_a_priori_rule(self, alpha, n_terms):
        es = cached_best(alpha, n_terms)
        assert certified_bound(es) <= total_error_bound(params_for_terms(alpha, n_terms))

    @pytest.mark.parametrize("alpha, n_terms", CASES)
    def test_bit_identical_reruns(self, alpha, n_terms):
        a, b = best_expsum(alpha, n_terms), best_expsum(alpha, n_terms)
        assert a.params == b.params
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.exponents.tobytes() == b.exponents.tobytes()
        assert certified_bound(a) == certified_bound(b)

    def test_far_below_a_priori_rule_at_200_terms(self):
        es = cached_best(0.5, 200)
        assert certified_bound(es) <= 1e-12
        assert total_error_bound(params_for_terms(0.5, 200)) > 1e-4

    @pytest.mark.parametrize("alpha, n_terms", [(0.05, 10), (0.1, 200), (0.25, 8), (0.02, 50), (0.99, 400)])
    def test_small_alpha(self, alpha, n_terms):
        # narrow admissible strips (eps near 1), a strip search that ends on
        # the boundary of the admitted strips (0.25, 8), and a lattice that
        # must stop before t_j underflows to zero; at 0.1 the certificate's
        # cells run past 1e68 with t_min ~ 1e-71, where an unscaled r**k
        # would overflow, and 400 terms at 0.99 are accurate to u
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            es = best_expsum(alpha, n_terms)
            assert es.exponents[0] >= np.finfo(float).tiny
            assert certified_bound(es) <= total_error_bound(params_for_terms(alpha, n_terms))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n_terms", [25, 50, 100, 200])
    def test_certificate_is_tight_on_a_priori_sums(self, alpha, n_terms):
        # these sums err most at xi = 1, the first grid point; their
        # certificates stop below 1e25, well inside the grid
        es = build_expsum(params_for_terms(alpha, n_terms))
        err = float(np.max(np.abs(evaluate(es, self.XI) - self.XI ** (-alpha))))
        assert err <= _a_posteriori_bound(alpha, es.weights, es.exponents) <= (1.0 + 1e-6) * err

    @pytest.mark.parametrize("h, admissible", [(1.8, True), (2.206105879648301, False)])
    def test_underflowing_lattice_is_inadmissible(self, h, admissible):
        # a random draw (alpha in [0.02, 0.98], h in [0.01, 3], N <= 300):
        # at the larger step n_minus*h puts the first exponent below the
        # normal range, and the split is rejected with None, not an error
        params = _params_at(0.41806961538144394, h, 160, 65)
        assert (params is not None) == admissible
        if admissible:
            assert build_expsum(params).exponents[0] >= np.finfo(float).tiny

    def test_widest_strip_below_the_normal_range_is_not_an_error(self):
        # at this small step the strip pi*alpha/8 would need eps < tiny; the
        # search returns the widest set ExpSumParams accepts instead
        params = _params_at(0.751337768152419, 0.0025538370338923696, 1774, 742)
        assert params is not None and params.eps >= np.finfo(float).tiny
        assert params.h == pytest.approx(0.0025538370338923696, rel=1e-12)

    def test_hand_built_sum_gets_a_priori_bound(self):
        es = cached_best(0.5, 30)
        assert certified_bound(es) < total_error_bound(es.params)
        same = build_expsum(es.params)
        assert same == es and hash(same) == hash(es)
        assert same.weights.tobytes() == es.weights.tobytes()
        assert same.exponents.tobytes() == es.exponents.tobytes()
        assert certified_bound(same) == total_error_bound(es.params)

    def test_in_place_write_raises(self):
        es = best_expsum(0.5, 30)
        bound = certified_bound(es)
        for same in (es, pickle.loads(pickle.dumps(es)), copy.deepcopy(es)):
            with pytest.raises(ValueError, match="read-only"):
                same.weights[0] *= 1.0 + 1e-3
            with pytest.raises(ValueError, match="read-only"):
                same.exponents[:] = 1.0
            assert certified_bound(same) == bound < total_error_bound(es.params)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            best_expsum(0.5, 2)
        with pytest.raises(ValueError):
            best_expsum(1.0, 30)


class TestBounds:
    def test_strip_norm_values(self):
        # alpha -> 1 limit at xi = 1 and the xi -> inf limit, both frozen
        assert strip_norm_bound(1.0 - 1e-12, 1.0) == pytest.approx(5.551078761704679, rel=1e-9)
        assert strip_norm_bound(0.3, 1e12) == pytest.approx(2.0 * (1.0 + math.log(2.0)), rel=1e-3)
        assert strip_norm_bound(0.6, 1.0) == pytest.approx(
            2.0 * (1.0 + math.log(2.0) + math.gamma(1.6) / math.cos(math.pi / 8) ** 0.6), rel=1e-15
        )

    def test_strip_norm_monotone_in_xi(self):
        xs = np.logspace(0, 6, 30)
        vals = [strip_norm_bound(0.4, x) for x in xs]
        assert np.all(np.diff(vals) < 0.0)

    def test_total_error_bound_golden(self):
        p = select_params(0.5, 1e-6)
        assert total_error_bound(p) == pytest.approx(1.9377800359325915e-04, rel=1e-13)
        # below the paper's closed form at the same target
        assert paper_closed_form_bound(0.5, 1e-6) == pytest.approx(3.599288237597566e-04, rel=1e-13)
        assert total_error_bound(p) < paper_closed_form_bound(0.5, 1e-6)

    def test_total_error_bound_switchover(self):
        # the same formula on both sides of exp(-pi^2/4), where the paper's
        # closed form stops being stated
        for eps in math.exp(-math.pi**2 / 4.0) * np.array([0.9, 1.0, 1.1]):
            p = select_params(0.5, eps)
            first_form = (strip_norm_bound(0.5, 1.0) + 1.0 / p.h + 1.0 / (p.beta * p.h**2)) * p.eps
            assert total_error_bound(p) == pytest.approx(first_form, rel=1e-14)

    def test_total_error_bound_generic_for_narrow_strip(self):
        alpha, eps, d = 0.5, 1e-6, 0.1
        h = 2.0 * math.pi * d / math.log(1.0 / eps)
        beta = math.cos(2.0 * d / alpha)
        n_minus = math.ceil(2.0 * math.pi * d / h**2)
        n_plus = math.ceil((2.0 * math.pi * d * h ** (-(alpha + 1.0) / alpha) / beta) ** alpha)
        p = ExpSumParams(alpha, eps, d, n_minus, n_plus)
        first_form = (strip_norm_bound(0.5, 1.0) + 1.0 / p.h + 1.0 / (p.beta * p.h**2)) * p.eps
        assert total_error_bound(p) == pytest.approx(first_form, rel=1e-14)

    def test_bound_to_eps_ratio_grows(self):
        r4 = total_error_bound(select_params(0.5, 1e-4)) / 1e-4
        r8 = total_error_bound(select_params(0.5, 1e-8)) / 1e-8
        assert r8 > r4

    def test_certified_accuracy_spot_check(self):
        p = select_params(0.5, 1e-8)
        es = build_expsum(p)
        xi = np.logspace(0, 6, 100)
        err = np.max(np.abs(evaluate(es, xi) - xi**-0.5))
        assert err <= total_error_bound(p)
        # the expsum-convergence rows up to 300 terms: sampled error <= bound
        # < the paper's closed form, which the grid's eps <= e^-2.5 admits
        for alpha in (0.25, 0.5, 0.75):
            for log_inv_eps in np.linspace(2.5, 40.0, 120):
                p = select_params(alpha, math.exp(-log_inv_eps))
                if p.n_terms > 300:
                    break
                err = np.max(np.abs(evaluate(build_expsum(p), XI_GRID) - XI_GRID**-alpha))
                assert err <= total_error_bound(p) < paper_closed_form_bound(alpha, p.eps), (alpha, p.eps)


class TestStripDecayBounds:
    def test_negative_half_plane_bound(self):
        # |g(gamma +- i d)| <= exp(-|gamma|) whenever sin d <= tan(alpha*pi/2)/4.
        # Widths are additionally capped at pi/3: past that the decay claim
        # degrades for alpha near 1 (and the certified constructions only use
        # d <= pi*alpha/8 anyway).
        alphas = [0.2, 0.35, 0.5, 0.75, 0.9]
        fracs = [0.2, 0.6, 0.95]
        gammas = np.linspace(-25.0, 0.0, 21)
        xis = [0.5, 1.0, 10.0, 1e3]
        for alpha in alphas:
            d_cap = min(math.pi / 3, math.asin(min(1.0, math.tan(alpha * math.pi / 2.0) / 4.0)))
            for frac in fracs:
                d = frac * d_cap
                for gamma in gammas:
                    for xi in xis:
                        for sign in (1.0, -1.0):
                            lg = log_abs_g(complex(gamma, sign * d), xi, alpha)
                            assert lg <= -abs(gamma) + 1e-12

    def test_positive_half_plane_bound(self):
        # |g(gamma +- i d)| <= exp(-xi*gamma^(1/alpha)*cos(d/(alpha*max(gamma, 1/2))))
        # for 0 <= d < alpha*pi/4
        alphas = [0.25, 0.4, 0.6, 0.75]
        fracs = [0.1, 0.5, 0.9]
        gammas = np.linspace(0.05, 12.0, 20)
        xis = [0.5, 1.0, 31.0, 1e3]
        for alpha in alphas:
            for frac in fracs:
                d = frac * alpha * math.pi / 4.0
                for gamma in gammas:
                    for xi in xis:
                        bound = -xi * gamma ** (1.0 / alpha) * math.cos(d / (alpha * max(gamma, 0.5)))
                        lg = log_abs_g(complex(gamma, d), xi, alpha)
                        assert lg <= bound + 1e-9 * abs(bound) + 1e-12


class TestSerialization:
    def test_two_column_dump(self):
        es = build_expsum(select_params(0.5, 1e-3))
        text = expsum_to_text(es)
        lines = text.strip().split("\n")
        assert len(lines) == es.n_terms
        parsed = np.array([[float(v) for v in line.split()] for line in lines])
        np.testing.assert_array_equal(parsed[:, 0], es.weights)
        np.testing.assert_array_equal(parsed[:, 1], es.exponents)
        assert np.all(np.diff(parsed[:, 1]) > 0.0)
