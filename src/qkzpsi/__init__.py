"""Exact multidegree vectors of type-A tensor product quiver varieties.

The package constructs the polynomial vectors attached to irreducible
components of tensor product quiver varieties (type A), named by their
weight data (k, lambda, m), the rational R-matrices tied to them by the
exchange relation, and checks the full set of functional identities they
satisfy: exchange, Yang-Baxter, unitarity, fusion, wheel conditions,
recurrence, cyclicity, and the rational qKZ difference step.  Everything is
exact; there is no floating point anywhere.
"""

from .algebra import (
    AlgebraError,
    ContextError,
    ExactDivisionError,
    LinearForm,
    Polynomial,
    PolyContext,
    RationalFunction,
    coordinate_context,
    parse_polynomial,
    spectral_context,
)
from .combinatorics import (
    Tableau,
    enumerate_tableaux,
    phi_map,
    promotion,
    rho_matrix,
    spaltenstein_label,
)

__all__ = [
    "AlgebraError",
    "ContextError",
    "ExactDivisionError",
    "LinearForm",
    "Polynomial",
    "PolyContext",
    "RationalFunction",
    "coordinate_context",
    "parse_polynomial",
    "spectral_context",
    "Tableau",
    "enumerate_tableaux",
    "phi_map",
    "promotion",
    "rho_matrix",
    "spaltenstein_label",
]
