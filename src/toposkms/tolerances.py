"""Central tolerance policy.

All comparisons in the package go through a TolerancePolicy so that a
scenario file (or a CLI --tol flag) can tighten or loosen individual
thresholds without touching code.

A policy lives on the object it validated: a State, an AutomorphismFlow
and a ContextPoset (with its SpectralPresheaf) each keep the `tol` they
were built with, and checks read it from their inputs: state.tol,
presheaf.tol, group.flow.tol, measure.presheaf.tol.  Only the input
boundaries (constructors of contexts, states, flows and posets) and the
primitives on a bare Context or matrix take a `tol`, defaulting to
DEFAULT_TOL.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TolerancePolicy:
    # hermiticity / idempotency of operators fed into validators
    eps_herm: float = 1e-10
    eps_idem: float = 1e-10
    # eigenvalue clustering and spectral membership
    eps_eig: float = 1e-8
    # projection order / lattice comparisons (Frobenius norms)
    eps_order: float = 1e-8
    # measure-level equalities (traces, section comparisons)
    eps_measure: float = 1e-9

    def override(self, **kwargs: float) -> "TolerancePolicy":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise KeyError(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_TOL = TolerancePolicy()
