"""Benchmark command line.

Subcommands write whitespace-separated numeric columns without headers
(directly consumable by gnuplot/pgfplots):

* ``expsum-convergence`` -- per sum length: max error over log-spaced
  arguments, and the certified bound;
* ``strip-bound`` -- the integrand modulus along a horizontal line in the
  complex plane against its decay bound;
* ``poisson`` -- relative solve error versus the number of exponential terms
  for the fractional finite-difference Poisson problem;
* ``rank-decay`` -- distance of the exact solution from low-rank approximants
  in the CP/Tucker/train formats;
* ``tt-highd`` -- timing, accuracy and ranks of the train-format solve in
  higher dimensions.

Exit codes: 0 on success, 2 on a configuration error (any ``ValueError``,
reported on one line), 3 when a computation would exceed the dense-memory
cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .expsum import (
    ExpSum,
    _check_alpha,
    _widest_strip,
    best_expsum,
    build_expsum,
    evaluate,
    expsum_to_text,
    integrand_g,
    params_for_terms,
    select_params,
    total_error_bound,
)
from .problems import RHS_KINDS, Grid1D, RhsSpec, _inv_linear_tt, laplacian_1d, sample_rhs
from .solver import (
    DEFAULT_MEMORY_CAP,
    KroneckerSum,
    MemoryCapError,
    oracle_apply,
    solve_cp,
    solve_dense,
    solve_tt,
    solve_tucker,
)
from .tensors import CPTensor, _check_memory, _check_nonnegative, cp_als, hosvd, tt_svd

XI_GRID = np.logspace(0.0, 6.0, 100)  # evaluation arguments for error sweeps


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except ValueError as exc:
        print(f"fracsum: {exc}", file=sys.stderr)
        return 2
    except MemoryCapError as exc:
        print(f"fracsum: {exc}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracsum", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expsum-convergence", help="max error and certified bound per sum length")
    p.add_argument("--alpha", type=float, action="append", help="exponent; repeatable (default 0.25 and 0.75)")
    p.add_argument("--N", type=int, default=1500, help="largest sum length to include")
    p.add_argument("--out", required=True, help="output path; (alpha) suffix added when several exponents run")
    p.add_argument("--dump-expsum", default=None, help="also write the last weight/exponent table here")
    p.set_defaults(handler=cmd_expsum_convergence)

    p = sub.add_parser("strip-bound", help="integrand modulus along Im = d versus its bound")
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--d", type=float, default=None, help="strip half-width (default pi*alpha/8, must stay below pi*alpha/4)")
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--tau-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_strip_bound)

    p = sub.add_parser("poisson", help="fractional Poisson solve error versus sum length")
    p.add_argument("--d", type=int, default=3, help="spatial dimension")
    p.add_argument("--n", type=int, default=32, help="grid unknowns per direction")
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--rhs", choices=RHS_KINDS[:3], default="inv_linear")
    p.add_argument("--format", choices=("dense", "cp", "tucker", "tt"), default="dense")
    p.add_argument("--N", type=int, default=150, help="largest sum length of the default sweep")
    p.add_argument("--sum-lengths", default=None, help="comma-separated explicit sum lengths")
    p.add_argument("--round-tol", type=float, default=1e-12, help="train recompression tolerance (tt format)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-expsum", default=None)
    p.set_defaults(handler=cmd_poisson)

    p = sub.add_parser("rank-decay", help="distance from best low-rank approximants per format")
    p.add_argument("--n", type=int, default=32, help="grid unknowns per direction (d = 3)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--N", type=int, default=25, help="largest approximant rank")
    p.add_argument("--format", default="cp,tucker,tt", help="comma-separated subset of cp,tucker,tt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_rank_decay)

    p = sub.add_parser("tt-highd", help="train-format solve in higher dimensions")
    p.add_argument("--d", type=int, action="append", help="dimension; repeatable (default 8)")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--N", type=int, default=200, help="sum length (most accurate certified sum of that length)")
    p.add_argument("--eps", type=float, default=None, help="accuracy target overriding --N (a-priori rule)")
    p.add_argument("--round-tol", type=float, default=1e-12)
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-expsum", default=None)
    p.set_defaults(handler=cmd_tt_highd)

    return parser


def _write_rows(path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.16e}"


def _check_memory_cap(cap: int) -> None:
    """A cap below one entry admits no dense tensor at all: a configuration error, not a cap overrun."""
    if cap < 1:
        raise ValueError(f"--memory-cap must be at least 1, got {cap}")


def _dump(es: ExpSum, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(expsum_to_text(es))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_expsum_convergence(args) -> None:
    alphas = args.alpha or [0.25, 0.75]
    if args.N < 1:
        raise ValueError("--N must be positive")
    last = None
    for alpha in alphas:
        rows = {}
        for log_inv_eps in np.linspace(2.5, 40.0, 120):
            params = select_params(alpha, math.exp(-log_inv_eps))
            if params.n_terms > args.N:
                break
            es = build_expsum(params)
            err = float(np.max(np.abs(evaluate(es, XI_GRID) - XI_GRID ** (-alpha))))
            rows[params.n_terms] = (params.n_terms, err, total_error_bound(params))
            last = es
        if not rows:
            raise ValueError(f"--N {args.N} admits no sum for alpha={alpha}; raise the cap")
        out = _suffixed(args.out, alpha) if len(alphas) > 1 else args.out
        _write_rows(out, [rows[k] for k in sorted(rows)])
        print(out)
    _dump(last, args.dump_expsum)


def _suffixed(path: str, alpha: float) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_{alpha:.6f}{ext}"


def cmd_strip_bound(args) -> None:
    alpha = args.alpha
    _check_alpha(alpha)
    d = _widest_strip(alpha) if args.d is None else args.d
    if not 0.0 < d < 2.0 * _widest_strip(alpha):
        raise ValueError(f"strip half-width must satisfy 0 < d < pi*alpha/4 = {2.0 * _widest_strip(alpha):g}")
    if not 0.0 < args.xi < math.inf:
        raise ValueError(f"--xi must be positive and finite, got {args.xi}")
    if not math.isfinite(args.tau_max):
        raise ValueError(f"--tau-max must be finite, got {args.tau_max}")
    if args.tau_max < 0.0:
        raise ValueError(f"--tau-max must be nonnegative, got {args.tau_max}")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    rows = []
    for tau in np.linspace(0.0, args.tau_max, args.points):
        g = abs(integrand_g(complex(tau, d), args.xi, alpha))
        bound = 1.0
        if tau > 0:
            with np.errstate(over="ignore"):  # an exponent past the float range is the exp(-745) floor
                decay = math.cos(d / (alpha * max(tau, 0.5))) * tau ** (1.0 / alpha)
                bound = math.exp(max(-args.xi * decay, -745.0))
        rows.append((tau, g, bound))
    _write_rows(args.out, rows)
    print(args.out)


def _poisson_setup(args):
    if not 0.0 < args.alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1] for this command, got {args.alpha}")
    if args.d < 1 or args.n < 2:
        raise ValueError("need dimension >= 1 and grid size >= 2")
    _check_memory_cap(args.memory_cap)
    # the oracle's n x n eigenvectors outgrow its n**d entries at d = 1
    _check_memory(max(args.n ** args.d, args.n ** 2), args.memory_cap, "oracle")
    grids = [Grid1D(args.n)] * args.d
    ks = KroneckerSum([laplacian_1d(args.n)] * args.d, memory_cap=args.memory_cap)
    rhs = sample_rhs(RhsSpec(kind=args.rhs, d=args.d, seed=args.seed), grids, memory_cap=args.memory_cap)
    dense = rhs if isinstance(rhs, np.ndarray) else rhs.to_dense(memory_cap=args.memory_cap)
    return ks, rhs, dense


def cmd_poisson(args) -> None:
    if args.N < 3:
        raise ValueError("--N must be at least 3 (smallest certified sum)")
    _check_nonnegative(args.round_tol, "round_tol")
    if args.alpha == 1.0 and args.dump_expsum:
        raise ValueError("--dump-expsum needs alpha < 1: the classical mode alpha = 1 builds no sum")
    ks, rhs, dense = _poisson_setup(args)
    if args.alpha == 1.0:
        # classical sanity mode: check the diagonalization oracle against the
        # defining linear system instead of sweeping exponential sums
        x = oracle_apply(ks, dense, 1.0)
        residual = float(np.linalg.norm(ks.apply(x) - dense) / np.linalg.norm(dense))
        _write_rows(args.out, [(0, residual, residual)])
        print(f"alpha=1: classical mode, relative residual {residual:.3e}", file=sys.stderr)
        print(args.out)
        return

    if args.format == "cp" and not isinstance(rhs, CPTensor):
        raise ValueError(f"format cp needs a low-rank rhs kind, not {args.rhs!r}")
    x_ref = oracle_apply(ks, dense, args.alpha)
    ref_norm = float(np.linalg.norm(x_ref))

    if args.sum_lengths:
        lengths = _parse_lengths(args.sum_lengths)
    else:
        # params_for_terms hits every budget >= 3 exactly
        lengths = np.unique(np.geomspace(3, args.N, 30).astype(int))
    solve = _format_solver(ks, rhs, dense, args)
    rows = []
    last = None
    for n_terms in lengths:
        es = build_expsum(params_for_terms(args.alpha, int(n_terms)))
        x = solve(es)
        err = float(np.linalg.norm(x - x_ref) / ref_norm)
        rows.append((es.n_terms, err))
        last = es
    rows = [row + (ref,) for row, ref in zip(rows, _reference_curve(args.alpha, rows, 1))]
    _write_rows(args.out, rows)
    print(args.out)
    _dump(last, args.dump_expsum)


def _reference_curve(alpha: float, rows, col: int) -> list:
    """``scale * exp(-sqrt(2*pi*d*N))`` at ``N = row[0]``, ``d = pi*alpha/8``, touching column ``col`` from above."""
    d_strip = _widest_strip(alpha)
    scale = max(r[col] * math.exp(math.sqrt(2.0 * math.pi * d_strip * r[0])) for r in rows)
    return [scale * math.exp(-math.sqrt(2.0 * math.pi * d_strip * r[0])) for r in rows]


def _parse_lengths(text: str):
    try:
        lengths = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --sum-lengths {text!r}: {exc}") from None
    if not lengths or min(lengths) < 3:
        raise ValueError("--sum-lengths entries must be integers >= 3")
    return lengths


def _format_solver(ks, rhs, dense, args):
    """The sweep's dense solution as a function of the sum; the right-hand side is converted to the format once."""
    if args.format == "dense":
        return lambda es: solve_dense(ks, dense, es)[0]
    if args.format == "cp":
        return lambda es: solve_cp(ks, rhs, es)[0].to_dense(memory_cap=args.memory_cap)
    if args.format == "tucker":
        c = hosvd(dense, tol=1e-14)
        return lambda es: solve_tucker(ks, c, es)[0].to_dense(memory_cap=args.memory_cap)
    c = tt_svd(dense, tol=0.0)
    return lambda es: solve_tt(ks, c, es, round_tol=args.round_tol)[0].to_dense(memory_cap=args.memory_cap)


def cmd_rank_decay(args) -> None:
    _check_alpha(args.alpha)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    bad = set(formats) - {"cp", "tucker", "tt"}
    if bad or not formats:
        raise ValueError(f"--format must be a nonempty subset of cp,tucker,tt, got {args.format!r}")
    if args.N < 3:
        raise ValueError("--N must be at least 3 (smallest certified sum)")
    d = 3
    _check_memory_cap(args.memory_cap)
    _check_memory(args.n ** d, args.memory_cap, "rank-decay")
    _check_memory(args.n ** (d - 1) * args.N if "cp" in formats else 0, args.memory_cap, "cp_als Khatri-Rao product")

    grids = [Grid1D(args.n)] * d
    ks = KroneckerSum([laplacian_1d(args.n)] * d, memory_cap=args.memory_cap)
    rhs = sample_rhs(RhsSpec(kind="random_rank1", d=d, seed=args.seed), grids)
    x_ref = oracle_apply(ks, rhs.to_dense(memory_cap=args.memory_cap), args.alpha)

    rows = []
    for rank in range(3, args.N + 1):
        es = build_expsum(params_for_terms(args.alpha, rank))
        constructive, report = solve_cp(ks, rhs, es)
        err_constructive = float(np.linalg.norm(constructive.to_dense(memory_cap=args.memory_cap) - x_ref))
        dist = {}
        if "cp" in formats:
            fit = cp_als(x_ref, rank, rng=np.random.default_rng(args.seed + rank), init=constructive)
            dist["cp"] = float(np.linalg.norm(x_ref - fit.to_dense(memory_cap=args.memory_cap)))
        if "tucker" in formats:
            dist["tucker"] = float(np.linalg.norm(x_ref - hosvd(x_ref, ranks=rank).to_dense(memory_cap=args.memory_cap)))
        if "tt" in formats:
            approx = tt_svd(x_ref, tol=0.0, max_rank=rank).to_dense(memory_cap=args.memory_cap)
            dist["tt"] = float(np.linalg.norm(x_ref - approx))
        rows.append(
            (
                rank,
                dist.get("cp", math.nan),
                dist.get("tucker", math.nan),
                dist.get("tt", math.nan),
                err_constructive,
                report.error_bound,
            )
        )
    rows = [row + (ref,) for row, ref in zip(rows, _reference_curve(args.alpha, rows, 5))]
    _write_rows(args.out, rows)
    print(args.out)


def cmd_tt_highd(args) -> None:
    dims = args.d or [8]
    _check_alpha(args.alpha)
    if min(dims) < 3:
        raise ValueError("tt-highd needs dimension >= 3")
    _check_nonnegative(args.round_tol, "round_tol")
    _check_memory_cap(args.memory_cap)
    if args.eps is not None:
        es = build_expsum(select_params(args.alpha, args.eps))
    else:
        es = best_expsum(args.alpha, args.N)
    rows = []
    for d in dims:
        # the train's guarded set-up runs before the n x n factors are formed
        rhs = _inv_linear_tt([Grid1D(args.n)] * d, args.memory_cap)
        ks = KroneckerSum([laplacian_1d(args.n)] * d, memory_cap=args.memory_cap)
        x, report = solve_tt(ks, rhs, es, round_tol=args.round_tol)
        if d <= 4 and args.n ** d <= args.memory_cap:
            x_ref = oracle_apply(ks, rhs.to_dense(memory_cap=args.memory_cap), args.alpha)
            err = float(np.linalg.norm(x.to_dense(memory_cap=args.memory_cap) - x_ref) / np.linalg.norm(x_ref))
        else:
            err = math.nan  # reference infeasible; placeholder keeps the column numeric
        rows.append((d, report.wall_time, err, max(report.ranks)))
    _write_rows(args.out, rows)
    print(args.out)
    _dump(es, args.dump_expsum)


if __name__ == "__main__":
    sys.exit(main())
