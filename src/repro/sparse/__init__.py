"""Block-sparse matrices over irregular tilings.

The paper's kernel is ``C <- C + A @ B`` where all three matrices are
*block-sparse*: a tile is either entirely absent (zero) or a dense NumPy
array.  Two representations coexist:

* :class:`~repro.sparse.shape.SparseShape` — tile-level occupancy (and
  optional per-tile norms) without data.  All the planning, screening, flop
  counting and performance modelling at paper scale (hundreds of thousands
  to millions of tiles) runs on shapes only, via vectorized sparse algebra
  in :mod:`~repro.sparse.shape_algebra`.
* :class:`~repro.sparse.matrix.BlockSparseMatrix` — shape plus actual tile
  data, used by the numeric execution path and by the tests that prove the
  distributed plan computes the exact same result as a dense reference.
"""

from repro.sparse.shape import SparseShape
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.construct import (
    from_dense,
    random_block_sparse,
    zeros,
)
from repro.sparse.gemm_ref import block_gemm_reference
from repro.sparse.shape_algebra import (
    gemm_flops,
    gemm_task_count,
    per_column_flops,
    product_shape,
    screened_product,
)
from repro.sparse.random_sparsity import random_shape_with_density

__all__ = [
    "SparseShape",
    "BlockSparseMatrix",
    "from_dense",
    "random_block_sparse",
    "zeros",
    "block_gemm_reference",
    "gemm_flops",
    "gemm_task_count",
    "per_column_flops",
    "product_shape",
    "screened_product",
    "random_shape_with_density",
]
