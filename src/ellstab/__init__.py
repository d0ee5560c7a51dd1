"""Exact-arithmetic calculator for cohomological transforms, slopes,
central charges, constraint curves and asymptotic phase comparison on
elliptically fibered threefolds with a section."""

from .asymptotics import (
    AsymptoticCharge,
    ChargeKind,
    PhaseLimit,
    PhaseOrder,
    Side,
    charge_series,
    compare_phases,
    compare_vectors,
    phase_limit,
    wall_scan,
)
from .charges import ChargeValue, full_charge, onedim_transform_charge, reduced_charge
from .curves import (
    OneDimCurve,
    TiltCurve,
    chow_identity_check,
    constraint_poly,
    expand_u,
    solve_u,
)
from .fmt import fiber_swap_rule, phi, phi_hat
from .ring import (
    BaseGeometry,
    ChernVector,
    DivisorB,
    DivisorX,
    compute_m,
    mul,
    pair,
    twist,
)
from .series import LaurentSeries
from .slopes import SlopeKind, SlopeTag, SlopeValue, slope

__all__ = [
    "AsymptoticCharge",
    "BaseGeometry",
    "ChargeKind",
    "ChargeValue",
    "ChernVector",
    "DivisorB",
    "DivisorX",
    "LaurentSeries",
    "OneDimCurve",
    "PhaseLimit",
    "PhaseOrder",
    "Side",
    "SlopeKind",
    "SlopeTag",
    "SlopeValue",
    "TiltCurve",
    "charge_series",
    "chow_identity_check",
    "compare_phases",
    "compare_vectors",
    "compute_m",
    "constraint_poly",
    "expand_u",
    "fiber_swap_rule",
    "full_charge",
    "mul",
    "onedim_transform_charge",
    "pair",
    "phase_limit",
    "phi",
    "phi_hat",
    "reduced_charge",
    "slope",
    "solve_u",
    "twist",
    "wall_scan",
]
