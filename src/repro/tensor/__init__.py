"""Block-sparse tensors and their matricization.

The ABCD term ``R[i,j,a,b] = sum_cd T[i,j,c,d] V[c,d,a,b]`` is executed, as
in the paper, by *matricizing*: fusing index pairs so the order-4 contraction
becomes the block-sparse matrix product ``C <- C + A @ B``.  This package
provides the order-N block-sparse tensor container, the fusion machinery,
and a small contraction-spec parser that maps a binary einsum-like spec onto
a GEMM over matricized operands.
"""

from repro.tensor.tensor import BlockSparseTensor
from repro.tensor.matricize import matricize, unmatricize
from repro.tensor.contraction import ContractionSpec, contract, plan_contraction

__all__ = [
    "BlockSparseTensor",
    "matricize",
    "unmatricize",
    "ContractionSpec",
    "contract",
    "plan_contraction",
]
