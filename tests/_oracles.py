"""Independent reference computations shared by the test modules.

Everything here is deliberately written against the raw formulas, not the
package code paths, so the tests compare two separate routes.  There are two
exceptions: :func:`exp_kron_apply` drives the solver's rotation kernel with
another filter, so that the kernel is checked against a brute-force matrix
exponential, and :func:`tt_hadamard_round_face_split` drives the rounding
sweeps with the product's carriages formed by :func:`face_split`, so that
the structured contraction of ``tensors._tt_hadamard_round`` is checked
against them.
"""

import cmath
import math

import numpy as np

from fracsum.solver import _eigenvalue_sums, _in_eigenbasis
from fracsum.tensors import _CUT_SHARE, TTTensor, _as_cores, _sweep_round


def ref_power(xi: float, alpha: float) -> float:
    """Reference value of xi**(-alpha), cross-checked between two routes.

    Uses the platform power function and verifies it against
    exp(-alpha*log(xi)) to 4 ulp before returning.
    """
    a = float(xi) ** (-alpha)
    b = math.exp(-alpha * math.log(xi))
    assert abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b))), (xi, alpha, a, b)
    return a


def paper_closed_form_bound(alpha: float, eps: float) -> float:
    """The paper's readable a-priori bound, stated for the strip ``d = pi*alpha/8`` and ``eps <= exp(-pi^2/4)``.

    ``2*[1 + log 2 + Gamma(alpha+1)/cos(pi/8)**alpha
    + (4*log(1/eps)/(pi^2*alpha))**(1/alpha)/cos(pi/4)] * eps``.
    """
    assert eps <= math.exp(-math.pi**2 / 4.0), eps
    growth = (4.0 * math.log(1.0 / eps) / (math.pi**2 * alpha)) ** (1.0 / alpha) / math.cos(math.pi / 4.0)
    return 2.0 * (1.0 + math.log(2.0) + math.gamma(alpha + 1.0) / math.cos(math.pi / 8.0) ** alpha + growth) * eps


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a plain Taylor series."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300) / 0.25))))
    t = m / 2.0**squarings
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, 60):
        term = term @ t / k
        out = out + term
        if np.linalg.norm(term, 1) < 1e-20 * np.linalg.norm(out, 1):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def log_abs_g(tau: complex, xi: float, alpha: float) -> float:
    """log |g(tau)| for the remapped integrand, computed entirely in log space.

    Safe for arguments where |g| itself would underflow:
    log|g| = -xi * Re(log(1+e^tau)**(1/alpha)) - log|1 + e^(-tau)|.
    """
    tau = complex(tau)
    gamma, d = tau.real, tau.imag
    # log(1 + e^tau) without overflow
    if gamma > 30.0:
        log_term = tau + cmath.log(1.0 + cmath.exp(-tau))
    else:
        log_term = cmath.log(1.0 + cmath.exp(tau))
    r = abs(log_term)
    theta = math.atan2(log_term.imag, log_term.real)
    re_power = r ** (1.0 / alpha) * math.cos(theta / alpha) if r > 0.0 else 0.0
    # log |1 + e^{-tau}| without overflow
    if gamma < -30.0:
        log_den = -gamma + math.log(abs(1.0 + cmath.exp(tau)))
    else:
        log_den = math.log(abs(1.0 + cmath.exp(-tau)))
    return -xi * re_power - log_den


def vec(x) -> np.ndarray:
    """Column-major vectorization, first index fastest: the convention of :func:`kron_sum_matrix`."""
    return np.asarray(x).ravel(order="F")


def mode_product(x, mode: int, a) -> np.ndarray:
    """Mode-``mode`` product by ``np.tensordot``: ``a``'s columns contract the tensor's mode, in place."""
    return np.moveaxis(np.tensordot(np.asarray(x), np.asarray(a), axes=([mode], [1])), -1, mode)


def tt_add(x: TTTensor, y: TTTensor) -> TTTensor:
    """Sum of two trains by block-diagonal carriages; each rank is the sum of the inputs' ranks."""
    cx, cy = x.carriages, y.carriages
    cars = [np.hstack([cx[0], cy[0]])]
    for a, b in zip(cx[1:-1], cy[1:-1]):
        (ra, n, sa), (rb, _, sb) = a.shape, b.shape
        block = np.zeros((ra + rb, n, sa + sb))
        block[:ra, :, :sa] = a
        block[ra:, :, sa:] = b
        cars.append(block)
    cars.append(np.vstack([cx[-1], cy[-1]]))
    return TTTensor(tuple(cars))


def face_split(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The carriage of an entrywise product: ``(r, n, s)`` and ``(r', n, s')`` give ``(r r', n, s s')``."""
    (ra, n, sa), (rb, _, sb) = g.shape, h.shape
    return (g[:, None, :, :, None] * h[None, :, :, None, :]).reshape(ra * rb, n, sa * sb)


def tt_hadamard_round_face_split(a: TTTensor, b: TTTensor, tol: float) -> TTTensor:
    """``tensors._tt_hadamard_round`` with the product's carriages formed by :func:`face_split`, four mode indices at a time in the right sweep.

    Both inputs must be left-orthogonal, as for the kernel, and each right
    part's triangular factor grows by one QR per block, with the same budget
    ``tol*||b||`` and the same split of it between the right-part cuts and
    the left-to-right steps.
    """
    ga, gb = _as_cores(a), _as_cores(b)

    def left(k, m):
        return np.tensordot(m, face_split(ga[k], gb[k]), axes=1)

    def right(k, m, rows):
        return np.tensordot(m, face_split(ga[k][:, rows], gb[k][:, rows]), axes=([1], [2])).transpose(0, 2, 1)

    budget = tol * np.linalg.norm(gb[-1])
    return _sweep_round(left, right, a.shape, (1.0 - _CUT_SHARE) * budget, block=4, cut=_CUT_SHARE * budget)


def exp_kron_apply(ks, c, t: float) -> np.ndarray:
    """The matrix exponential of ``t`` times the Kronecker sum ``ks``, applied to ``c`` by ``solver._in_eigenbasis``.

    The summands commute, so the exponential is the diagonal filter
    ``exp(t * (lam_1[i_1] + ... + lam_d[i_d]))`` on the joint eigenbasis.
    """
    return _in_eigenbasis(ks, np.asarray(c, dtype=float), lambda y: np.exp(t * _eigenvalue_sums(ks)) * y)


def kron_sum_matrix(factors) -> np.ndarray:
    """Kronecker-sum matrix acting on column-major vectorizations.

    The factor for mode i sits in position i counted from the right, so that
    the matrix agrees with per-mode products under first-index-fastest
    vectorization.
    """
    shape = [a.shape[0] for a in factors]
    n = int(np.prod(shape))
    out = np.zeros((n, n))
    for i, a in enumerate(factors):
        left = int(np.prod(shape[:i], dtype=int))
        right = n // (left * shape[i])
        out += np.kron(np.eye(right), np.kron(a, np.eye(left)))
    return out


def random_spd(rng, n: int, spread: float = 1.0) -> np.ndarray:
    """Well-conditioned random symmetric positive definite matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 0.5 + spread, n)
    return (q * lam) @ q.T


def numerical_multilinear_ranks(x: np.ndarray, rel_tol: float = 1e-10):
    """Ranks of all mode unfoldings, with singular values below rel_tol*max dropped."""
    ranks = []
    for i in range(x.ndim):
        m = np.moveaxis(x, i, 0).reshape(x.shape[i], -1, order="F")
        s = np.linalg.svd(m, compute_uv=False)
        ranks.append(int(np.sum(s > rel_tol * s[0])) if s[0] > 0 else 0)
    return tuple(ranks)
