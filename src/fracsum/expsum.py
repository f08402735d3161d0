"""Certified exponential-sum approximation of ``xi**(-alpha)`` on [1, inf).

The function ``xi**(-alpha)`` (0 < alpha < 1) is written as a Laplace-type
integral, remapped to the whole real line by the substitution
``t = log(1 + exp(tau))**(1/alpha)``, and discretized with the infinite
trapezoidal rule of step ``h``.  Truncating the lattice to indices
``j = -n_minus .. n_plus`` gives a finite sum

    xi**(-alpha)  ~=  sum_j  w_j * exp(-t_j * xi)

with positive weights ``w_j`` and increasing exponents ``t_j``.  Because the
integrand is analytic on a horizontal strip of half-width ``d`` and decays on
the real line, the total error admits an a-priori bound that is uniform over
``xi in [1, inf)``; everything needed to evaluate that bound is carried in
:class:`ExpSumParams`.

For a fixed number of terms, :func:`best_expsum` searches the same family for
the most accurate sum and certifies its error a posteriori, from its own
weights and exponents; :func:`certified_bound` is the one bound every solver
reports.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EPS_CAP",
    "ExpSum",
    "ExpSumParams",
    "best_expsum",
    "build_expsum",
    "certified_bound",
    "evaluate",
    "expsum_to_text",
    "integrand_g",
    "params_for_terms",
    "select_params",
    "strip_norm_bound",
    "total_error_bound",
]

# Largest accuracy target for which the closed-form error bound is certified.
EPS_CAP = math.exp(-math.pi**2 / 4)  # ~0.08480

_COS_PI_8 = math.cos(math.pi / 8)
_COS_PI_4 = math.cos(math.pi / 4)


def _check_alpha(alpha: float) -> None:
    """Raise a one-line ``ValueError`` unless ``0 < alpha < 1`` (NaN fails too)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class ExpSumParams:
    """Quadrature configuration for one exponential sum.

    Attributes
    ----------
    alpha : float
        Exponent of the approximated power function, in (0, 1).
    eps : float
        Accuracy target that fixed the step size.
    d : float
        Half-width of the analyticity strip used by the bound,
        0 < d <= pi*alpha/8.
    h : float
        Trapezoidal step, h = 2*pi*d / log(1/eps).
    n_minus, n_plus : int
        Number of lattice points kept on the negative/positive side.
    """

    alpha: float
    eps: float
    d: float
    h: float
    n_minus: int
    n_plus: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        d_max = math.pi * self.alpha / 8.0
        if not 0.0 < self.d <= d_max * (1.0 + 1e-12):
            raise ValueError(f"d must satisfy 0 < d <= pi*alpha/8 = {d_max}, got {self.d}")
        h_expected = 2.0 * math.pi * self.d / math.log(1.0 / self.eps)
        if not math.isclose(self.h, h_expected, rel_tol=1e-10):
            raise ValueError(f"h must equal 2*pi*d/log(1/eps) = {h_expected}, got {self.h}")
        if self.n_minus < 0 or self.n_plus < 0:
            raise ValueError("truncation counts must be nonnegative")
        # The truncation counts may exceed the minimal certified values, never
        # undercut them (extra terms only shrink the dropped tails).
        n_minus_min, n_plus_min = _truncation_minima(self.alpha, self.d, self.h)
        if self.n_minus + 1e-9 < n_minus_min:
            raise ValueError("n_minus below the certified minimum 2*pi*d/h^2")
        if self.n_plus + 1e-9 < n_plus_min:
            raise ValueError(f"n_plus below the certified minimum {n_plus_min}")
        t_min = _lattice(self.alpha, self.h, np.array([-float(self.n_minus)]))[1][0]
        if not t_min >= np.finfo(float).tiny:
            raise ValueError(f"smallest exponent {t_min:g} is not a positive normal float; decrease n_minus*h")

    @property
    def beta(self) -> float:
        """Real-axis decay constant ``cos(2*d/alpha)``, at least ``cos(pi/4)`` since ``d <= pi*alpha/8``."""
        return math.cos(2.0 * self.d / self.alpha)

    @property
    def n_terms(self) -> int:
        return self.n_minus + self.n_plus + 1


@dataclass(frozen=True)
class ExpSum:
    """Weights and exponents of a truncated quadrature sum.

    Arrays are indexed by the lattice position ``j = -n_minus .. n_plus`` in
    ascending order:

        weights[j]   = h / (alpha * Gamma(alpha)) / (1 + exp(-j*h))
        exponents[j] = log(1 + exp(j*h)) ** (1/alpha)

    Both are stored as read-only copies, so a sum never changes after it
    is built and a certificate attached to it cannot go stale.
    """

    params: ExpSumParams
    weights: np.ndarray
    exponents: np.ndarray
    # the a-posteriori bound the library certified for this sum; see
    # certified_bound.  Not a constructor argument, so no caller can pass one.
    _certificate: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("weights", "exponents"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        n = self.params.n_terms
        if self.weights.shape != (n,) or self.exponents.shape != (n,):
            raise ValueError("weights/exponents must both have n_minus + n_plus + 1 entries")
        if not np.all(self.weights > 0.0):
            raise ValueError("weights must be positive")
        if not (np.all(self.exponents > 0.0) and np.all(np.diff(self.exponents) > 0.0)):
            raise ValueError("exponents must be positive and strictly increasing")

    @property
    def n_terms(self) -> int:
        return self.params.n_terms

    def __setstate__(self, state):
        # unpickling and copy.deepcopy would otherwise hand back writable arrays
        self.__dict__.update(state, weights=_read_only(state["weights"]), exponents=_read_only(state["exponents"]))


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def integrand_g(tau, xi: float, alpha: float) -> complex:
    """Evaluate the remapped Laplace integrand at a (complex) point.

    Computes ``exp(-xi * log(1 + exp(tau))**(1/alpha)) / (1 + exp(-tau))``
    with principal branches throughout.

    Raises
    ------
    ValueError
        If ``|Im(tau)| >= pi``, where the integrand hits the pole line of the
        denominator and the branch cuts of the logarithm.
    """
    _check_alpha(alpha)
    tau = complex(tau)
    if abs(tau.imag) >= math.pi:
        raise ValueError(f"integrand is singular for |Im(tau)| >= pi, got Im = {tau.imag}")
    # log(1 + e^tau): for large positive real part factor out e^tau to avoid
    # overflow; the principal branches agree because |Im(tau)| < pi.
    if tau.real > 30.0:
        log1p_exp = tau + cmath.log(1.0 + cmath.exp(-tau))
    else:
        log1p_exp = cmath.log(1.0 + cmath.exp(tau))
    t = log1p_exp ** (1.0 / alpha) if log1p_exp != 0 else 0.0
    num = cmath.exp(-xi * t)
    if tau.real >= 0.0:
        return num / (1.0 + cmath.exp(-tau))
    # 1/(1 + e^-tau) = e^tau/(1 + e^tau): safe against overflow of e^-tau
    w = cmath.exp(tau)
    return num * w / (1.0 + w)


def select_params(alpha: float, eps: float) -> ExpSumParams:
    """Choose certified quadrature parameters for a target accuracy.

    Parameters
    ----------
    alpha : float
        Power-function exponent, in (0, 1).
    eps : float
        Target accuracy.  Values above ``EPS_CAP`` (~0.085) are accepted but
        flagged: the readable closed-form bound is not certified there and
        :func:`total_error_bound` falls back to the generic form.

    The strip half-width is the maximum ``d = pi*alpha/8``, which maximizes
    the quadrature decay rate.

    Returns
    -------
    ExpSumParams
    """
    _check_alpha(alpha)
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if eps >= 1.0:
        raise ValueError(f"eps must be below 1 for a meaningful step size, got {eps}")
    d = math.pi * alpha / 8.0
    if eps > EPS_CAP:
        warnings.warn(
            f"eps = {eps:g} exceeds exp(-pi^2/4) ~ {EPS_CAP:.4f}; "
            "the closed-form error constant is not certified in this regime",
            stacklevel=2,
        )
    h, n_minus, n_plus = _certified_counts(alpha, d, math.log(1.0 / eps))
    return ExpSumParams(alpha=alpha, eps=eps, d=d, h=h, n_minus=n_minus, n_plus=n_plus)


def _certified_counts(alpha: float, d: float, log_inv_eps: float):
    """Step size and minimal truncation counts for one target."""
    h = 2.0 * math.pi * d / log_inv_eps
    n_minus_min, n_plus_min = _truncation_minima(alpha, d, h)
    return h, math.ceil(n_minus_min), math.ceil(n_plus_min)


def _truncation_minima(alpha: float, d: float, h: float):
    """The certified minimal truncation counts ``2*pi*d/h^2`` and ``(2*pi*d*h^(-(alpha+1)/alpha)/beta)^alpha``."""
    beta = math.cos(2.0 * d / alpha)
    return 2.0 * math.pi * d / h**2, (2.0 * math.pi * d * h ** (-(alpha + 1.0) / alpha) / beta) ** alpha


def params_for_terms(alpha: float, n_terms: int) -> ExpSumParams:
    """Choose certified parameters whose sum has exactly ``n_terms`` terms.

    The accuracy target is pushed as low as the term budget allows; when the
    integer ceilings of the minimal truncation counts do not land exactly on
    the budget, the remainder is spent on extra negative-side terms, which
    only shrink the dropped tail and leave the certified bound valid.

    The smallest reachable budget is 3 (one term on each side of j = 0).
    """
    _check_alpha(alpha)
    if n_terms < 3:
        raise ValueError(f"n_terms must be at least 3, got {n_terms}")
    d = math.pi * alpha / 8.0

    def total(log_inv_eps: float) -> int:
        _, n_minus, n_plus = _certified_counts(alpha, d, log_inv_eps)
        return n_minus + n_plus + 1

    lo, hi = 1e-3, 4.0
    while total(hi) <= n_terms:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) <= n_terms:
            lo = mid
        else:
            hi = mid
    h, n_minus, n_plus = _certified_counts(alpha, d, lo)
    pad = n_terms - (n_minus + n_plus + 1)
    return ExpSumParams(alpha=alpha, eps=math.exp(-lo), d=d, h=h, n_minus=n_minus + pad, n_plus=n_plus)


def build_expsum(params: ExpSumParams) -> ExpSum:
    """Materialize the weight/exponent arrays for a parameter set.

    ``log(1 + exp(j*h))`` is computed as ``j*h + log1p(exp(-j*h))`` on the
    positive side, where ``j*h`` reaches hundreds and ``exp(j*h)`` would
    overflow.
    """
    j = np.arange(-params.n_minus, params.n_plus + 1, dtype=float)
    weights, exponents = _lattice(params.alpha, params.h, j)
    return ExpSum(params=params, weights=weights, exponents=exponents)


def _lattice(alpha: float, h: float, j: np.ndarray):
    """Quadrature weights and exponents at the lattice indices ``j``."""
    jh = j * h
    log1p_exp = np.where(jh > 0.0, jh + np.log1p(np.exp(-np.abs(jh))), np.log1p(np.exp(np.minimum(jh, 0.0))))
    weights = (h / (alpha * math.gamma(alpha))) / (1.0 + np.exp(-jh))
    exponents = log1p_exp ** (1.0 / alpha)
    return weights, exponents


def evaluate(es: ExpSum, xi):
    """Evaluate the exponential sum at ``xi`` (scalar or array).

    Terms are accumulated in ascending lattice order with compensated
    (Kahan) summation, so the result is reproducible and the rounding error
    stays within a couple of ulps of the sum of term magnitudes.  The
    approximation is certified for ``xi >= 1``; smaller positive arguments
    evaluate fine but carry no error guarantee.
    """
    xi_arr = np.asarray(xi, dtype=float)
    acc = np.zeros(xi_arr.shape)
    comp = np.zeros(xi_arr.shape)
    for w, t in zip(es.weights, es.exponents):
        term = w * np.exp(-t * xi_arr)
        y = term - comp
        new = acc + y
        comp = (new - acc) - y
        acc = new
    if np.isscalar(xi) or xi_arr.ndim == 0:
        return float(acc)
    return acc


def strip_norm_bound(alpha: float, xi: float) -> float:
    """Bound on the boundary integral of |g| over the analyticity strip.

    Returns ``2*(1 + log 2 + Gamma(alpha+1)/(xi*cos(pi/8))**alpha)``; the
    bound decreases monotonically in ``xi`` toward ``2*(1 + log 2)``.
    """
    _check_alpha(alpha)
    return 2.0 * (1.0 + math.log(2.0) + math.gamma(alpha + 1.0) / (xi * _COS_PI_8) ** alpha)


def total_error_bound(params: ExpSumParams) -> float:
    """Certified uniform error bound over ``xi in [1, inf)``.

    For ``eps <= EPS_CAP`` and the default strip width ``d = pi*alpha/8``
    this is the closed form

        2*[1 + log 2 + Gamma(alpha+1)/cos(pi/8)**alpha
             + cos(pi/4)**-1 * (4*log(1/eps)/(pi^2*alpha))**(1/alpha)] * eps.

    Otherwise the generic form

        (strip_norm_bound(alpha, 1) + 1/h + 1/(beta*h**(1/alpha))) * eps

    is returned; it is valid for every parameter set accepted by
    :class:`ExpSumParams` (the closed form absorbs the 1/h terms using the
    maximal strip width, so it certifies only that choice of ``d``).
    """
    alpha, eps = params.alpha, params.eps
    d_is_max = math.isclose(params.d, math.pi * alpha / 8.0, rel_tol=1e-12)
    if eps <= EPS_CAP and d_is_max:
        log_inv_eps = math.log(1.0 / eps)
        bracket = (
            1.0
            + math.log(2.0)
            + math.gamma(alpha + 1.0) / _COS_PI_8**alpha
            + (4.0 * log_inv_eps / (math.pi**2 * alpha)) ** (1.0 / alpha) / _COS_PI_4
        )
        return 2.0 * bracket * eps
    h, beta = params.h, params.beta
    return (strip_norm_bound(alpha, 1.0) + 1.0 / h + 1.0 / (beta * h ** (1.0 / alpha))) * eps


# Fixed-budget search (best_expsum).  Lattice terms whose weight falls below
# exp(-_REACH) ~ 4e-18 are invisible next to xi**-alpha <= 1 in double
# precision, so no useful truncation reaches further; the negative side stops
# earlier for small alpha, where its exponents would leave the normal range.
_REACH = 40.0
_RANK_GRID = np.exp(np.linspace(0.0, 12.0, 256))  # arguments that rank candidate sums
_H_COARSE = 24  # log-spaced step sizes over a factor of 30
_H_FINE = 41  # refinement between the best coarse step's neighbours

# A-posteriori certificate: Taylor order and ratio of the geometric cells.
_TAYLOR_ORDER = 12
_CELL_RATIO = 1.04
_U = 2.0**-53  # unit roundoff


def best_expsum(alpha: float, n_terms: int) -> ExpSum:
    """Most accurate sum with exactly ``n_terms`` terms, certified a posteriori.

    Searches the trapezoidal family of :func:`build_expsum` over the step
    ``h`` and the split ``n_minus``/``n_plus``, deterministically: a coarse
    then a fine log grid of steps, each with the split that minimizes its
    estimated error.  The winner's error on ``[1, inf)`` is then
    certified from its own weights and exponents (see :func:`certified_bound`),
    which is far tighter than the a-priori bound of its parameters.  Should
    the certificate not beat the a-priori bound of
    ``params_for_terms(alpha, n_terms)`` (or the winner admit no valid
    :class:`ExpSumParams`), that sum is returned instead, so the bound never
    exceeds the one of the a-priori rule.
    """
    _check_alpha(alpha)
    if n_terms < 3:
        raise ValueError(f"n_terms must be at least 3, got {n_terms}")
    reach_minus = min(_REACH, 600.0 * alpha)
    h_max = (reach_minus + _REACH**alpha) / (n_terms - 1)
    coarse = np.linspace(math.log(h_max / 30.0), math.log(h_max), _H_COARSE)
    best = min(range(_H_COARSE), key=lambda i: _rank_step(alpha, math.exp(coarse[i]), n_terms, reach_minus)[0])
    fine = np.linspace(coarse[max(best - 1, 0)], coarse[min(best + 1, _H_COARSE - 1)], _H_FINE)
    ranked = [(_rank_step(alpha, math.exp(x), n_terms, reach_minus), x) for x in fine]
    (_, n_minus), log_h = min(ranked, key=lambda entry: entry[0][0])
    params = _params_at(alpha, math.exp(log_h), n_minus, n_terms - 1 - n_minus)
    fallback = params_for_terms(alpha, n_terms)
    es = _certified(build_expsum(params)) if params is not None else None
    if es is None or certified_bound(es) > total_error_bound(fallback):
        es = _certified(build_expsum(fallback))
    return es


def _rank_step(alpha: float, h: float, n_terms: int, reach_minus: float):
    """Estimated error of the best ``n_terms`` truncation of the step-``h`` lattice, and its ``n_minus``.

    The estimate adds the sampled error of the untruncated lattice to the
    two dropped tails at ``xi = 1``.  Splits whose lattice reaches past the
    useful range are not considered; ``(inf, 0)`` when none is left.
    """
    jm = math.floor(reach_minus / h)
    jp = math.ceil(_REACH**alpha / h)
    splits = np.arange(max(1, n_terms - 1 - jp), min(jm, n_terms - 2) + 1)
    if splits.size == 0:
        return math.inf, 0
    weights, exponents = _lattice(alpha, h, np.arange(-jm, jp + 1, dtype=float))
    disc = max(
        float(np.max(np.abs(np.exp(-np.outer(xi, exponents)) @ weights - xi ** (-alpha))))
        for xi in np.array_split(_RANK_GRID, 8)
    )
    tail = weights * np.exp(-exponents)
    below = np.concatenate(([0.0], np.cumsum(tail)))  # below[i]: entries 0 .. i-1
    above = np.concatenate((np.cumsum(tail[::-1])[::-1], [0.0]))  # above[i]: entries i ..
    est = disc + below[jm - splits] + above[jm + n_terms - splits]
    i = int(np.argmin(est))
    return float(est[i]), int(splits[i])


def _params_at(alpha: float, h: float, n_minus: int, n_plus: int) -> ExpSumParams | None:
    """Parameters for a given step and split, with the widest strip they admit.

    The strip half-width is derived from the rounded ``eps``, exactly as
    :class:`ExpSumParams` checks it.  ``None`` when only a strip so narrow
    that ``eps`` rounds to 1 would be admitted.
    """

    def at(log_inv_eps):
        eps = math.exp(-log_inv_eps)
        d = h * math.log(1.0 / eps) / (2.0 * math.pi)
        n_minus_min, n_plus_min = _truncation_minima(alpha, d, h)
        ok = d > 0.0 and n_minus + 1e-9 >= n_minus_min and n_plus + 1e-9 >= n_plus_min
        return ok, eps, d

    widest = 2.0 * math.pi * (math.pi * alpha / 8.0) / h
    if not at(widest)[0]:
        lo = 0.0
        for _ in range(100):
            mid = 0.5 * (lo + widest)
            lo, widest = (mid, widest) if at(mid)[0] else (lo, mid)
        widest = lo
    ok, eps, d = at(widest)
    if not ok:
        return None
    return ExpSumParams(alpha=alpha, eps=eps, d=d, h=h, n_minus=n_minus, n_plus=n_plus)


def certified_bound(es: ExpSum) -> float:
    """Certified uniform error bound of a sum over ``xi in [1, inf)``.

    This is :func:`total_error_bound` of ``es.params``, unless the library
    certified this very sum a posteriori (as :func:`best_expsum` does); then
    it is the smaller of the two.  A sum assembled by hand, even from the
    arrays of a certified one, gets the a-priori bound.
    """
    bound = total_error_bound(es.params)
    if es._certificate is not None:
        bound = min(bound, es._certificate)
    return bound


def _certified(es: ExpSum) -> ExpSum:
    """Attach the a-posteriori certificate of ``es``; its arrays are read-only, so it holds for good."""
    object.__setattr__(es, "_certificate", _a_posteriori_bound(es.params.alpha, es.weights, es.exponents))
    return es


def _a_posteriori_bound(alpha: float, weights: np.ndarray, exponents: np.ndarray) -> float:
    """Rigorous bound on ``|sum_j w_j exp(-t_j xi) - xi**-alpha|`` over ``xi >= 1``.

    ``[1, inf)`` is cut into geometric cells ``[a, b]`` with ``b = 1.04 a``.
    On each cell the error ``e = S - f`` is expanded to order ``K = 12``
    about the midpoint ``m`` with radius ``r``; the cell bound is
    ``sum_k |e^(k)(m)| r^k / k!`` plus the remainder
    ``max(|S^(K+1)(a)|, |f^(K+1)(a)|) r^(K+1) / (K+1)!``, valid because ``S``
    and ``f = xi**-alpha`` are both completely monotone: their derivatives of
    one order share a sign and shrink in modulus as ``xi`` grows.  Beyond the
    last cell end ``X`` both are positive and decreasing, so the error is at
    most ``max(S(X), X**-alpha)``; cells are added until that is below the
    largest cell bound.

    Every term is formed in the log domain, ``exp(log w + k log(t r) - t m
    - log k!)``, so no ``0 * inf`` arises; each is enclosed by widening its
    exponent by ``12 u`` times the sum of the moduli of its parts (``u`` the
    unit roundoff, ``log`` and ``exp`` taken as accurate to 2 ulp), and the
    sums by their accumulated rounding.  Terms with ``t * a > 1400`` on a
    whole run of cells are below ``exp(-1300) w`` and are skipped.
    """
    K = _TAYLOR_ORDER
    lw, lt = np.log(weights), np.log(exponents)
    k = np.arange(K + 2, dtype=float)
    log_fact = np.log([float(math.factorial(i)) for i in range(K + 2)])
    log_poch = np.log(np.cumprod([1.0] + [alpha + i for i in range(K + 1)]))  # (alpha)_k

    def s_scaled(kk, lf, lr, x, live):
        """Enclosure of ``sum_j w_j (t_j r)^k exp(-t_j x) / k!`` over the first ``live`` terms (last axis)."""
        t = exponents[:live]
        arg = lw[:live] + kk * (lt[:live] + lr) - t * x - lf
        mag = np.abs(lw[:live]) + kk * (np.abs(lt[:live]) + np.abs(lr)) + t * x + lf
        lo, hi = _exp_enclosure(arg, mag)
        return lo.sum(axis=-1) * (1.0 - live * _U), hi.sum(axis=-1) * (1.0 + live * _U)

    def f_scaled(kk, lf, lp, lr, x):
        """Enclosure of ``|f^(k)(x)| r^k / k! = (alpha)_k / k! * x**-alpha * (r/x)**k``."""
        lx = np.log(x)
        arg = lp - lf - alpha * lx + kk * (lr - lx)
        # the extra 1 per order covers the rounding of the Pochhammer product
        return _exp_enclosure(arg, np.abs(lp) + lf + alpha * np.abs(lx) + kk * (np.abs(lr) + np.abs(lx) + 1.0))

    chunk = min(256, max(16, 2**19 // (len(weights) * (K + 1))))  # cells per pass
    worst, a = 0.0, 1.0
    while True:
        edges = a * _CELL_RATIO ** np.arange(chunk + 1)
        left, right = edges[:-1], edges[1:]
        mid = left + (right - left) / 2.0
        rad = np.maximum(mid - left, right - mid)  # exact differences: [left, right] lies in mid +- rad
        lrad = np.log(rad)
        live = int(np.searchsorted(exponents, 1400.0 / left[0], side="right"))

        # Taylor coefficients |e^(k)(m)| r^k / k!, k = 0..K, shape (cells, K+1)
        s_lo, s_hi = s_scaled(k[: K + 1, None], log_fact[: K + 1, None], lrad[:, None, None], mid[:, None, None], live)
        f_lo, f_hi = f_scaled(k[: K + 1], log_fact[: K + 1], log_poch[: K + 1], lrad[:, None], mid[:, None])
        coef = np.maximum(s_hi - f_lo, f_hi - s_lo) * (1.0 + 2.0 * _U)
        # remainder from the order K+1 derivative moduli at the left end
        _, rem_s = s_scaled(k[K + 1], log_fact[K + 1], lrad[:, None], left[:, None], live)
        _, rem_f = f_scaled(k[K + 1], log_fact[K + 1], log_poch[K + 1], lrad, left)
        worst = max(worst, float(np.max(coef.sum(axis=1) + np.maximum(rem_s, rem_f))))

        # everything beyond the last cell end
        x = float(right[-1])
        tail = max(float(s_scaled(0.0, 0.0, 0.0, x, len(weights))[1]), float(f_scaled(0.0, 0.0, 0.0, 0.0, x)[1]))
        if tail <= worst or x > 1e300:
            return max(worst, tail) * (1.0 + 2.0 * (K + 3) * _U)
        a = x


def _exp_enclosure(arg, mag):
    """Lower and upper bounds of ``exp(arg)`` for an ``arg`` computed with rounding of at most ``12 u mag``."""
    slack = 12.0 * _U * mag + 8.0 * _U
    return np.exp(arg - slack) * (1.0 - 4.0 * _U), np.exp(arg + slack) * (1.0 + 4.0 * _U)


def expsum_to_text(es: ExpSum) -> str:
    """Serialize as two whitespace-separated columns, one ``weight exponent`` pair per line."""
    lines = [f"{w:.17e} {t:.17e}" for w, t in zip(es.weights, es.exponents)]
    return "\n".join(lines) + "\n"
