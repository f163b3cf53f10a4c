"""setlattice: exact calculus in the lattice of upper closed convex sets.

The package provides the inf-residuated arithmetic of upper sets over a
polyhedral ordering cone (dimensions 1 and 2), set-valued directional
derivatives, Stampacchia/Minty variational-inequality checkers, and the
vector-optimization specialization, all in exact rational arithmetic.
"""

from .extres import MINUS_INF, PLUS_INF, ExtReal, inf_add, residual
from .kernel import (
    DirectionSet,
    LatticeError,
    NegativeScalar,
    NormalOutsideDualCone,
    OrderCone,
    UpperSet,
    Workspace,
    WorkspaceMismatch,
    inf_family,
    sup_family,
)

__version__ = "0.1.0"

__all__ = [
    "ExtReal",
    "PLUS_INF",
    "MINUS_INF",
    "inf_add",
    "residual",
    "Workspace",
    "OrderCone",
    "DirectionSet",
    "UpperSet",
    "inf_family",
    "sup_family",
    "LatticeError",
    "NormalOutsideDualCone",
    "NegativeScalar",
    "WorkspaceMismatch",
    "__version__",
]
