"""Angle field and monotonicity invariants of the swept surface.

Identify the plane with C.  A curve gamma sweeps out a surface in C^2
under the circle action, and the surface carries a phase function

    theta(u) = arg( gamma(u) * gamma'(u) )          (complex product)

defined wherever the curve stays off the origin.  theta is computed as a
continuous lift along each component and anchored so theta at node 0 lies
in [0, 2*pi).  It is invariant under rescaling gamma -> sigma * gamma,
which is what makes it usable on blow-up sequences.

Two line integrals control the flow globally on closed curves:

* ``liouville_integral``  -- integral of <i*gamma, gamma'> ds, equal to
  twice the enclosed area of the sweeping curve;
* ``maslov_integral``     -- total increment of theta around the curve,
  a multiple of 2*pi.

Their ratio c = liouville/maslov is a constant of the motion: along the
flow, liouville(t) = (c - 2t) * maslov, so the liouville integral drains
linearly and hits zero at t = c/2.  ``drainage_defect`` measures the
violation of that law and is the primary global accuracy gauge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CurveConfigError,
    FrameData,
    OriginContactError,
    PlaneCurve,
    compute_frame,
    curve_pieces,
)

__all__ = [
    "NonMonotoneError",
    "AngleField",
    "lagrangian_angle",
    "MonotoneData",
    "monotone_data",
    "drainage_defect",
    "normalize",
]

# |theta increment - 2*pi*k| below this snaps to the exact multiple.
MASLOV_SNAP_TOL = 1e-3


class NonMonotoneError(ValueError):
    """The angle increment around the curve vanishes; the c-constant
    (and everything downstream of it) is undefined."""


@dataclass(frozen=True)
class AngleField:
    """Continuous angle lift per node and its increment around the curve.

    ``total_increment`` is nan for open curves, where "around" means
    nothing.
    """

    theta: np.ndarray
    total_increment: float


@dataclass(frozen=True)
class MonotoneData:
    liouville_integral: float
    maslov_integral: float
    constant_c: float


def _raw_phase(curve: PlaneCurve, frame: FrameData) -> np.ndarray:
    z = curve.as_complex()
    dist = np.abs(z)
    floor = 1e-12 * max(curve.diameter, 1e-300)
    if dist.min() <= floor:
        raise OriginContactError(
            f"node at distance {dist.min():.3e} from the origin; "
            "the angle field is singular there"
        )
    tz = frame.tangent[:, 0] + 1j * frame.tangent[:, 1]
    return np.angle(z * tz)


def lagrangian_angle(curve: PlaneCurve, frame: FrameData) -> AngleField:
    """Continuous lift of arg(gamma * tangent), anchored at node 0.

    Closed curves get a single cyclic lift whose wrap-around jump is the
    total increment (2*pi times the rotation number of gamma*gamma').
    Open curves are lifted per component; each component is anchored
    independently into [0, 2*pi) at its first node, since far-field jumps
    carry no usable phase continuity.
    """
    ph = _raw_phase(curve, frame)
    if curve.closed:
        lifted = np.unwrap(np.concatenate([ph, ph[:1]]))
        total = float(lifted[-1] - lifted[0])
        theta = lifted[:-1]
        offset = theta[0] - (theta[0] % (2.0 * np.pi))
        return AngleField(theta=theta - offset, total_increment=total)
    theta = np.empty_like(ph)
    for piece in curve_pieces(curve.points, False):
        seg = np.unwrap(ph[piece])
        theta[piece] = seg - (seg[0] - (seg[0] % (2.0 * np.pi)))
    return AngleField(theta=theta, total_increment=float("nan"))


def monotone_data(
    curve: PlaneCurve, frame: FrameData, angle: AngleField | None = None
) -> MonotoneData:
    """Liouville and angle-increment integrals and their ratio c.

    Only meaningful on closed curves.  The angle increment is snapped to
    the nearest multiple of 2*pi when within MASLOV_SNAP_TOL (it is one
    exactly, up to discretization noise); an increment of zero means the
    curve bounds no phase winding and c does not exist.
    """
    if not curve.closed:
        raise CurveConfigError("monotone data requires a closed curve")
    if angle is None:
        angle = lagrangian_angle(curve, frame)
    z = curve.as_complex()
    tz = frame.tangent[:, 0] + 1j * frame.tangent[:, 1]
    # <i*gamma, gamma'> ds with unit tangent and arclength weight
    liouville = float(np.sum(np.real(1j * z * np.conj(tz)) * frame.weight))
    inc = angle.total_increment
    k = round(inc / (2.0 * np.pi))
    if abs(inc - 2.0 * np.pi * k) < MASLOV_SNAP_TOL:
        inc = 2.0 * np.pi * k
    if inc == 0.0:
        raise NonMonotoneError("angle increment around the curve is zero")
    return MonotoneData(
        liouville_integral=liouville,
        maslov_integral=inc,
        constant_c=liouville / inc,
    )


def normalize(curve: PlaneCurve) -> tuple[PlaneCurve, float]:
    """Rescale so the c-constant becomes exactly 1.

    Returns the scaled curve and the applied factor c**(-1/2).  The
    liouville integral is quadratic under scaling while the angle
    increment is invariant, so c scales by the factor squared.  Requires
    c > 0 (counterclockwise winding and positive area go together here).
    """
    if not curve.closed:
        raise CurveConfigError("normalization requires a closed curve")
    md = monotone_data(curve, compute_frame(curve))
    if not md.constant_c > 0.0:
        raise NonMonotoneError(
            f"c = {md.constant_c:.6g} is not positive; cannot normalize"
        )
    factor = md.constant_c ** -0.5
    return PlaneCurve(curve.points * factor, closed=True), factor


def drainage_defect(md: MonotoneData, initial_constant: float, t: float) -> float:
    """Relative drift of ``md``, taken at time t, from the linear drainage
    law: |liouville - (c0 - 2t) * maslov| / |maslov| with c0 the
    c-constant at flow start."""
    expected = (initial_constant - 2.0 * t) * md.maslov_integral
    return abs(md.liouville_integral - expected) / abs(md.maslov_integral)
