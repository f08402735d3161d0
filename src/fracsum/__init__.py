"""Exponential-sum approximation of fractional inverse powers of Kronecker sums.

The package has four layers:

* :mod:`fracsum.expsum` -- certified exponential sums for ``xi**(-alpha)``;
* :mod:`fracsum.tensors` -- dense/CP/Tucker/tensor-train formats and their
  rank-controlled arithmetic;
* :mod:`fracsum.solver` -- application of ``A**(-alpha)`` for Kronecker sums
  ``A`` to right-hand sides in any of those formats, plus the dense
  diagonalization oracle;
* :mod:`fracsum.problems` -- finite-difference Laplacian benchmark instances.

The ``fracsum`` command line (see :mod:`fracsum.cli`) reproduces the error and
rank-decay studies as plain-text data files.

Setting the environment variable ``FRACSUM_THREADS`` before the first import
caps the BLAS worker pools used by the numerical kernels.
"""

import os as _os

if "FRACSUM_THREADS" in _os.environ:
    # must happen before numpy initializes its BLAS backend
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["FRACSUM_THREADS"])

from .expsum import (
    EPS_CAP,
    ExpSum,
    ExpSumParams,
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
    truncation_bound,
)
from .problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from .solver import (
    DEFAULT_MEMORY_CAP,
    KroneckerSum,
    MemoryCapError,
    SolveReport,
    exp_kron_apply,
    oracle_apply,
    solve_cp,
    solve_dense,
    solve_tt,
    solve_tucker,
)
from .tensors import (
    CPTensor,
    TTTensor,
    TuckerTensor,
    cp_als,
    fold,
    hosvd,
    mode_product,
    multi_mode_product,
    tt_add,
    tt_mode_product,
    tt_norm,
    tt_round,
    tt_svd,
    unfold,
    unvec,
    vec,
)

__version__ = "0.1.0"
