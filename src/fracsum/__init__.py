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

The numerical kernels run in numpy's BLAS; its thread pool follows the
backend's own variables (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``),
which take effect only when set before numpy is first imported.  Tensor-train
roundings are the exception: where numpy bundles OpenBLAS, they switch it to
one thread and back, because their QRs and SVDs of up to about a thousand
rows by 128 columns run 1.3 to 2 times slower on two threads, and so train
results do not depend on the thread setting.
"""

from .expsum import (
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
)
from .problems import Grid1D, RhsSpec, laplacian_1d, sample_rhs
from .solver import (
    DEFAULT_MEMORY_CAP,
    KroneckerSum,
    MemoryCapError,
    SolveReport,
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
    hosvd,
    multi_mode_product,
    tt_mode_product,
    tt_norm,
    tt_round,
    tt_svd,
    unfold,
)

__version__ = "0.1.0"
