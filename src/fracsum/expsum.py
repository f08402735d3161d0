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
:class:`ExpSumParams`.  A sum is its parameter set: :class:`ExpSum` derives
its weights and exponents from it, so that bound holds for every sum.

For a fixed number of terms, :func:`best_expsum` searches the same family for
the most accurate sum and certifies its error a posteriori, from its own
weights and exponents; :func:`certified_bound` is the one bound every solver
reports.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
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

_COS_PI_8 = math.cos(math.pi / 8)


def _check_alpha(alpha: float) -> None:
    """Raise a one-line ``ValueError`` unless ``0 < alpha < 1`` (NaN fails too)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _widest_strip(alpha: float) -> float:
    """The widest strip half-width ``pi*alpha/8`` that :class:`ExpSumParams` admits."""
    return math.pi * alpha / 8.0


def _beta(alpha: float, d: float) -> float:
    """The real-axis decay constant ``cos(2*d/alpha)`` of the strip half-width ``d``."""
    return math.cos(2.0 * d / alpha)


def _check_eps(eps: float) -> None:
    """Raise a one-line ``ValueError`` unless ``tiny <= eps < 1``, where ``log(1/eps)`` is finite and positive (NaN fails too)."""
    if not np.finfo(float).tiny <= eps < 1.0:
        raise ValueError(f"eps must be in [{np.finfo(float).tiny:g}, 1), got {eps}")


@dataclass(frozen=True)
class ExpSumParams:
    """Quadrature configuration for one exponential sum.

    Attributes
    ----------
    alpha : float
        Exponent of the approximated power function, in (0, 1).
    eps : float
        Accuracy target that fixes the step size, in (0, 1).
    d : float
        Half-width of the analyticity strip used by the bound,
        0 < d <= pi*alpha/8.
    h : float
        Trapezoidal step, h = 2*pi*d / log(1/eps); derived, not a field.
    n_minus, n_plus : int
        Number of lattice points kept on the negative/positive side.
    """

    alpha: float
    eps: float
    d: float
    n_minus: int
    n_plus: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_eps(self.eps)
        d_max = _widest_strip(self.alpha)
        if not 0.0 < self.d <= d_max * (1.0 + 1e-12):
            raise ValueError(f"d must satisfy 0 < d <= pi*alpha/8 = {d_max}, got {self.d}")
        if self.n_minus < 0 or self.n_plus < 0:
            raise ValueError("truncation counts must be nonnegative")
        # The truncation counts may exceed the minimal certified values, never
        # undercut them (extra terms only shrink the dropped tails).
        n_minus_min, n_plus_min = _truncation_minima(self.alpha, self.d, self.h)
        if self.n_minus + 1e-9 < n_minus_min:
            raise ValueError("n_minus below the certified minimum 2*pi*d/h^2")
        if self.n_plus + 1e-9 < n_plus_min:
            raise ValueError(f"n_plus below the certified minimum {n_plus_min}")
        t_min = _smallest_exponent(self.alpha, self.h, self.n_minus)
        if not t_min >= np.finfo(float).tiny:
            raise ValueError(f"smallest exponent {t_min:g} is not a positive normal float; decrease n_minus*h")

    @property
    def h(self) -> float:
        """Trapezoidal step ``2*pi*d/log(1/eps)``."""
        return _step(self.d, math.log(1.0 / self.eps))

    @property
    def beta(self) -> float:
        """Real-axis decay constant ``cos(2*d/alpha)``, at least ``cos(pi/4)`` since ``d <= pi*alpha/8``."""
        return _beta(self.alpha, self.d)

    @property
    def n_terms(self) -> int:
        return self.n_minus + self.n_plus + 1


@dataclass(frozen=True)
class ExpSum:
    """The truncated quadrature sum of one parameter set.

    The weights and exponents are derived from ``params`` at construction,
    indexed by the lattice position ``j = -n_minus .. n_plus`` in ascending
    order:

        weights[j]   = h / (alpha * Gamma(alpha)) / (1 + exp(-j*h))
        exponents[j] = log(1 + exp(j*h)) ** (1/alpha)

    Both are read-only, so a sum never changes after it is built and a
    certificate attached to it cannot go stale.  Sums compare and hash by
    their parameters.
    """

    params: ExpSumParams
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    # the a-posteriori bound the library certified for this sum; see
    # certified_bound.  Not a constructor argument, so no caller can pass one.
    _certificate: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.params
        lattice = _lattice(p.alpha, p.h, np.arange(-p.n_minus, p.n_plus + 1, dtype=float))
        for name, a in zip(("weights", "exponents"), lattice):
            object.__setattr__(self, name, _read_only(a))
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
        denominator and the branch cuts of the logarithm, or where
        ``log(1 + exp(tau))**(1/alpha)`` overflows (``Re(tau)`` ~ 1.3e3 at 0.01).
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
    try:  # a complex power overflows by raising or, through repeated products, as NaN
        t = log1p_exp ** (1.0 / alpha) if log1p_exp != 0 else 0.0
    except OverflowError:
        t = math.inf
    if not cmath.isfinite(t):
        raise ValueError(f"log(1 + exp(tau))**(1/alpha) is not finite at tau = {tau}, alpha = {alpha:g}")
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
        Target accuracy, in ``[tiny, 1)``.

    The strip half-width is the maximum ``d = pi*alpha/8``, which maximizes
    the quadrature decay rate.

    Returns
    -------
    ExpSumParams
    """
    _check_alpha(alpha)
    _check_eps(eps)
    d = _widest_strip(alpha)
    n_minus, n_plus = _certified_counts(alpha, d, math.log(1.0 / eps))
    return ExpSumParams(alpha=alpha, eps=eps, d=d, n_minus=n_minus, n_plus=n_plus)


def _step(d: float, log_inv_eps: float) -> float:
    """The trapezoidal step ``2*pi*d/log(1/eps)`` of a strip half-width ``d`` and an accuracy target ``eps``."""
    return 2.0 * math.pi * d / log_inv_eps


def _certified_counts(alpha: float, d: float, log_inv_eps: float):
    """Minimal truncation counts for one target, at its step (see :func:`_step`)."""
    return tuple(math.ceil(m) for m in _truncation_minima(alpha, d, _step(d, log_inv_eps)))


def _truncation_minima(alpha: float, d: float, h: float):
    """The certified minimal truncation counts ``2*pi*d/h^2`` and ``(2*pi*d*h^(-(alpha+1)/alpha)/beta)^alpha``; a one-line ``ValueError`` where the second overflows, as it does for small ``alpha``."""
    try:
        n_plus_min = (2.0 * math.pi * d * h ** (-(alpha + 1.0) / alpha) / _beta(alpha, d)) ** alpha
    except OverflowError:
        n_plus_min = math.inf
    if n_plus_min == math.inf:
        raise ValueError(f"alpha = {alpha:g} is too small: the n_plus minimum overflows at step h = {h:g}")
    return 2.0 * math.pi * d / h**2, n_plus_min


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
    d = _widest_strip(alpha)

    def total(log_inv_eps: float) -> int:
        return sum(_certified_counts(alpha, d, log_inv_eps)) + 1

    hi = 4.0
    while total(hi) <= n_terms:
        hi *= 2.0
    lo = _largest(lambda log_inv_eps: total(log_inv_eps) <= n_terms, 1e-3, hi, 200)
    n_minus, n_plus = _certified_counts(alpha, d, lo)
    pad = n_terms - (n_minus + n_plus + 1)
    return ExpSumParams(alpha=alpha, eps=math.exp(-lo), d=d, n_minus=n_minus + pad, n_plus=n_plus)


def _largest(pred, lo: float, hi: float, steps: int) -> float:
    """The largest argument in ``[lo, hi]`` where a monotone ``pred`` holds, from below, by ``steps`` bisections."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo


def build_expsum(params: ExpSumParams) -> ExpSum:
    """The sum of a parameter set, ``ExpSum(params)``."""
    return ExpSum(params)


def _smallest_exponent(alpha: float, h: float, n_minus: int) -> float:
    """The lattice's first exponent, at index ``-n_minus``; it underflows to 0 once ``n_minus*h`` is large."""
    with np.errstate(over="ignore"):  # that index's weight may overflow to 0; only the exponent is read
        return _lattice(alpha, h, np.array([-float(n_minus)]))[1][0]


def _lattice(alpha: float, h: float, j: np.ndarray):
    """Quadrature weights and exponents at the lattice indices ``j``.

    ``log(1 + exp(j*h))`` is computed as ``j*h + log1p(exp(-j*h))`` on the
    positive side, where ``j*h`` reaches hundreds and ``exp(j*h)`` would
    overflow.
    """
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
    """Certified uniform error bound over ``xi in [1, inf)``, for every parameter set.

    The bound is

        (strip_norm_bound(alpha, 1) + 1/h + 1/(beta*h**(1/alpha))) * eps.

    At the widest strip ``d = pi*alpha/8`` and ``eps <= exp(-pi^2/4)`` the
    paper states the readable upper bound

        2*[1 + log 2 + Gamma(alpha+1)/cos(pi/8)**alpha
             + cos(pi/4)**-1 * (4*log(1/eps)/(pi^2*alpha))**(1/alpha)] * eps,

    which replaces ``1/h`` by a second copy of ``(1/h)**(1/alpha)/cos(pi/4)``
    and is therefore larger there, by up to a factor of 2.
    """
    alpha, h, beta = params.alpha, params.h, params.beta
    return (strip_norm_bound(alpha, 1.0) + 1.0 / h + 1.0 / (beta * h ** (1.0 / alpha))) * params.eps


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
    fallback = params_for_terms(alpha, n_terms)  # also checks alpha and n_terms
    reach_minus = min(_REACH, 600.0 * alpha)
    h_max = (reach_minus + _REACH**alpha) / (n_terms - 1)
    coarse = np.linspace(math.log(h_max / 30.0), math.log(h_max), _H_COARSE)
    best = min(range(_H_COARSE), key=lambda i: _rank_step(alpha, math.exp(coarse[i]), n_terms, reach_minus)[0])
    fine = np.linspace(coarse[max(best - 1, 0)], coarse[min(best + 1, _H_COARSE - 1)], _H_FINE)
    ranked = [(_rank_step(alpha, math.exp(x), n_terms, reach_minus), x) for x in fine]
    (_, n_minus), log_h = min(ranked, key=lambda entry: entry[0][0])
    params = _params_at(alpha, math.exp(log_h), n_minus, n_terms - 1 - n_minus)
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

    The strip half-width is derived from the rounded ``eps``, so that the
    step :class:`ExpSumParams` derives from the two is ``h`` up to rounding.
    The widest strip is the largest ``log(1/eps)`` at which
    :class:`ExpSumParams` accepts the set, by bisection.  ``None`` when it
    accepts none, for example when ``n_minus*h`` puts the first exponent
    below the normal range.
    """

    def at(log_inv_eps):
        eps = math.exp(-log_inv_eps)
        try:  # an eps that underflows to 0 is as inadmissible as one ExpSumParams rejects
            d = h * math.log(1.0 / eps) / (2.0 * math.pi)
            return ExpSumParams(alpha=alpha, eps=eps, d=d, n_minus=n_minus, n_plus=n_plus)
        except (ValueError, ZeroDivisionError):
            return None

    widest = 2.0 * math.pi * _widest_strip(alpha) / h
    if at(widest) is None:
        widest = _largest(lambda log_inv_eps: at(log_inv_eps) is not None, 0.0, widest, 100)
    return at(widest)


def certified_bound(es: ExpSum) -> float:
    """Certified uniform error bound of a sum over ``xi in [1, inf)``.

    This is :func:`total_error_bound` of ``es.params``, which holds for
    every sum, since a sum's arrays are those of its parameters.  A sum
    returned by :func:`best_expsum` also carries its a-posteriori
    certificate, and then the bound is the smaller of the two.
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
    ``max(|S^(K+1)|, |f^(K+1)|) r^(K+1) / (K+1)!`` left of the cell (``S``
    at the previous midpoint, ``f`` at the left end), valid because ``S``
    and ``f = xi**-alpha`` are both completely monotone: their derivatives of
    one order share a sign and shrink in modulus as ``xi`` grows.  Beyond
    the last cell end ``X`` the error is at most ``max(S(X), X**-alpha)``;
    cells are added until that is below the largest cell bound.

    A pass of cells from ``a`` on forms ``p_j = w_j exp(-t_j m)`` once per
    cell and live term (``t_j a <= 1400``, so no power overflows) and the
    moments ``M_k = sum_j p_j (t_j a)^k``, k = 0..K+2, by one matrix product:
    ``|S^(k)(m)| r^k / k! = M_k (r/a)^k / k!``, while ``|f^(k)(x)| r^k / k!
    = (alpha)_k / k! x**-alpha (r/x)^k``.  With ``u`` the unit roundoff, and
    ``exp`` and ``**`` taken as accurate to 4 ulp:

    - rounding ``t_j m`` moves ``p_j`` by ``u t_j m p_j``, in sum ``u (m/a) M_(k+1)``;
    - ``M_k (r/a)^k / k!``, k >= 1, errs by at most ``(live + 5k + 9) u``
      relative: exp 8, weight 1, power ``2k - 1``, the matrix product
      ``live`` in any order, scale ``3k - 1``, last product and sum 2;
    - ``M_0`` adds halves, so a term meets at most ``bit_length(live)``
      additions, each off by ``u`` of its result (Higham 2002, section 4.2),
      besides exp 8 and weight 1;
    - the ``f`` side errs by ``(3k + 19) u`` relative;
    - a term that is not live or whose exp is below the smallest normal
      ``tiny`` is dropped: its ``t_j m`` exceeds 700, so over all orders it
      adds at most ``w_j exp(-t_j m (1 - r/m))``, below ``w_j sqrt(tiny)``.
      With the ``2^-1074`` each underflowing product may lose, that is in
      the floor ``(sum_j w_j + n) sqrt(tiny)`` added to each cell and ``S(X)``;
    - relative allowances carry a factor 1.02 for second-order terms, and a
      final ``2 (K + 3) u`` covers the sum over orders and the remainder.
    """
    K = _TAYLOR_ORDER
    k = np.arange(K + 2, dtype=float)[:, None]  # orders 0..K+1
    poch = np.cumprod(np.append(1.0, (alpha + k[:-1, 0]) / k[1:, 0]))[:, None]  # (alpha)_k / k!
    f_err = 1.02 * _U * (3.0 * k + 19.0)
    floor = (float(np.sum(weights)) + len(weights)) * math.sqrt(np.finfo(float).tiny)
    chunk = min(256, max(16, 2**19 // (len(weights) * (K + 1))))  # cells per pass
    worst, a = 0.0, 1.0
    while True:
        edges = a * _CELL_RATIO ** np.arange(-1, chunk + 1)  # from one cell before a, for the remainder
        left, right = edges[:-1], edges[1:]
        mid = left + (right - left) / 2.0
        rad = np.maximum(mid - left, right - mid)  # exact differences: [left, right] lies in mid +- rad
        live = int(np.searchsorted(exponents, 1400.0 / a, side="right"))
        t = exponents[:live, None]
        e = np.exp(-t * mid)
        m0 = p = np.where(e >= np.finfo(float).tiny, weights[:live, None] * e, 0.0)  # (terms, cells)
        while len(m0) > 1:
            h = len(m0) // 2
            m0 = np.concatenate((m0[:h] + m0[h : 2 * h], m0[2 * h :]))
        mom = np.vstack((m0.sum(axis=0), np.cumprod(np.broadcast_to(t.T * a, (K + 2, live)), axis=0) @ p))
        err = np.vstack(((live.bit_length() + 9) * mom[:1], (live + 5 * K + 14) * mom[1:-1]))
        err = 1.02 * _U * (err + mid / a * mom[1:])
        scale = np.cumprod(np.vstack((np.ones_like(rad), rad / a / k[1:])), axis=0)  # (r/a)^k / k!
        rem_s = (mom[K + 1, :-1] + err[K + 1, :-1]) * scale[K + 1, 1:]
        f = poch[: K + 1] * mid[1:] ** -alpha * (rad[1:] / mid[1:]) ** k[: K + 1]
        rem_f = poch[K + 1] * left[1:] ** -alpha * (rad[1:] / left[1:]) ** (K + 1) * (1.0 + f_err[K + 1])
        coef = np.abs(mom[: K + 1, 1:] * scale[: K + 1, 1:] - f) + (err * scale)[: K + 1, 1:] + f_err[: K + 1] * f
        worst = max(worst, float(np.max(coef.sum(axis=0) + np.maximum(rem_s, rem_f))) + floor)
        x = float(right[-1])  # beyond it, terms with t_j x > 1400 are in the floor
        n = int(np.searchsorted(exponents, 1400.0 / x, side="right"))
        tail_s = float(weights[:n] @ np.exp(-(exponents[:n] * x) * (1.0 - 2.0 * _U))) * (1.0 + 1.02 * (n + 9) * _U)
        tail = max(tail_s + floor, x**-alpha * (1.0 + 8.0 * _U))
        if tail <= worst or x > 1e300:
            return max(worst, tail) * (1.0 + 2.0 * (K + 3) * _U)
        a = x


def expsum_to_text(es: ExpSum) -> str:
    """Serialize as two whitespace-separated columns, one ``weight exponent`` pair per line."""
    lines = [f"{w:.17e} {t:.17e}" for w, t in zip(es.weights, es.exponents)]
    return "\n".join(lines) + "\n"
