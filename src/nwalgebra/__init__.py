"""Exact computational engine for Nichols-Woronowicz algebras B_W over
simply-laced Weyl groups.

All arithmetic is exact: rationals by default, a prime field as a fast
mode for large graded components.  No floating point enters any result.
"""

__version__ = "0.1.0"

from .coxeter import CartanData, RootSystem, GroupElement, cartan_data
from .nichols_core import AlgebraState, NicholsElement

__all__ = [
    "CartanData",
    "RootSystem",
    "GroupElement",
    "cartan_data",
    "AlgebraState",
    "NicholsElement",
    "__version__",
]
