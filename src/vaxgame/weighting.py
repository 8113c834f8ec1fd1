"""Probability perception functions: identity and Prelec weighting.

The Prelec family maps a true probability x to exp(-(-ln x)**alpha) with
alpha in (0, 1].  It fixes 1/e (perceived equals true there), overweights
below it and underweights above it.  All functions here are pure and the
specs immutable, so everything is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightingSpec",
    "identity",
    "prelec",
    "weight",
    "weight_inverse",
    "weight_derivative",
    "verify_inverse_s_shape",
    "InverseSShapeReport",
    "PERCEPTION_FIXED_POINT",
]

# Fixed point and inflection of every Prelec function: w(1/e) = 1/e.
PERCEPTION_FIXED_POINT = math.exp(-1.0)
# Interior points of the uniform grid verify_inverse_s_shape checks.
SHAPE_GRID_SIZE = 10_000


@dataclass(frozen=True)
class WeightingSpec:
    """Perception function selector: ``identity`` or ``prelec`` with alpha."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "identity":
            if self.alpha is not None:
                raise ValueError("identity weighting takes no alpha")
        elif self.kind == "prelec":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError("prelec alpha must lie in (0, 1]")
        else:
            raise ValueError(f"unknown weighting kind {self.kind!r}")

    @property
    def is_identity(self) -> bool:
        # alpha = 1 reduces the Prelec form to the identity exactly
        return self.kind == "identity" or self.alpha == 1.0

    @property
    def label(self) -> str:
        return "identity" if self.kind == "identity" else f"prelec({self.alpha:g})"

    def to_json(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        return {"kind": "prelec", "alpha": self.alpha}

    @staticmethod
    def from_json(obj: dict) -> "WeightingSpec":
        kind = obj.get("kind")
        if kind == "identity":
            return identity()
        if kind == "prelec":
            alpha = obj["alpha"]
            # type(), not isinstance: JSON true is a bool, which is an int
            if type(alpha) not in (int, float):
                raise TypeError(f"prelec alpha must be a number, got {alpha!r}")
            return prelec(alpha)
        raise ValueError(f"unknown weighting kind {kind!r}")


def identity() -> WeightingSpec:
    return WeightingSpec("identity")


def prelec(alpha: float) -> WeightingSpec:
    return WeightingSpec("prelec", float(alpha))


def _check_unit(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0) or math.isnan(value):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def weight(spec: WeightingSpec, x):
    """Perceived probability w(x) of a float, or elementwise of an ndarray.

    Endpoints are handled explicitly: the Prelec formula is singular at 0
    and 1 but the function extends continuously with w(0)=0, w(1)=1.  A
    float goes through ``math``; an array is evaluated in one numpy pass
    and raises ValueError if any entry lies outside [0, 1] or is NaN.  The
    two agree to about two ulps per unit of the exponent (-ln x)**alpha,
    which is how much exp magnifies a rounding in its argument.
    """
    if isinstance(x, np.ndarray):
        return _weight_array(spec, x)
    x = _check_unit(x, "probability")
    if spec.is_identity:
        return x
    if x == 0.0 or x == 1.0:
        return x
    return math.exp(-((-math.log(x)) ** spec.alpha))


def _weight_array(spec: WeightingSpec, x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=np.float64)
    # NaN fails both comparisons, so it lands in the mask too
    bad = ~((out >= 0.0) & (out <= 1.0))
    if bad.any():
        raise ValueError(f"probability must lie in [0, 1], got {float(out[bad][0])!r}")
    if spec.is_identity:
        return out
    inner = (out > 0.0) & (out < 1.0)
    out[inner] = np.exp(-((-np.log(out[inner])) ** spec.alpha))
    return out


def weight_inverse(spec: WeightingSpec, y: float) -> float:
    """Exact inverse of :func:`weight` (closed form, no root finding)."""
    y = _check_unit(y, "perceived probability")
    if spec.is_identity:
        return y
    if y == 0.0 or y == 1.0:
        return y
    return math.exp(-((-math.log(y)) ** (1.0 / spec.alpha)))


def weight_derivative(spec: WeightingSpec, x: float) -> float:
    """Analytic derivative w'(x) on the open interval (0, 1)."""
    x = float(x)
    if not (0.0 < x < 1.0):
        raise ValueError("derivative is evaluated on the open interval (0, 1)")
    if spec.is_identity:
        return 1.0
    t = -math.log(x)
    return weight(spec, x) * spec.alpha * t ** (spec.alpha - 1.0) / x


@dataclass
class InverseSShapeReport:
    """Outcome of the numeric inverse-S-shape verification.

    ``checks`` maps a check name to ``(ok, first_violation)`` where the
    second entry is the grid point of the first violation (None if clean).
    ``skipped`` is set for the identity, which has no inflection by design.
    """

    spec: WeightingSpec
    passed: bool
    skipped: bool
    checks: dict


def verify_inverse_s_shape(spec: WeightingSpec) -> InverseSShapeReport:
    """Check the inverse-S-shape properties of a weighting on a uniform grid.

    Verified numerically: strict monotonicity, a single concave-to-convex
    switch of the second difference, overweighting below 1/e and
    underweighting above it, slope below one at the inflection, and a
    qualitative divergence of the derivative at both endpoints (analytic
    derivative increasing through offsets 1e-6, 1e-9, 1e-12 and exceeding
    10 at the innermost offset; no finite grid can verify the limit).
    """
    if spec.is_identity:
        return InverseSShapeReport(spec, passed=True, skipped=True, checks={})

    xs = np.arange(1, SHAPE_GRID_SIZE + 1, dtype=np.float64) / (SHAPE_GRID_SIZE + 1)
    ws = weight(spec, xs)
    checks = {}

    d1 = np.diff(ws)
    bad = np.nonzero(d1 <= 0.0)[0]
    checks["strictly_increasing"] = (bad.size == 0, xs[bad[0] + 1] if bad.size else None)

    # concave block then convex block, up to a dead band for float noise
    d2 = np.diff(ws, 2)
    band = 1e-13
    signs = np.zeros(d2.size, dtype=np.int8)
    signs[d2 > band] = 1
    signs[d2 < -band] = -1
    nz = signs[signs != 0]
    ok_shape = nz.size > 0 and nz[0] == -1 and nz[-1] == 1
    flips = np.nonzero(np.diff(nz) != 0)[0]
    ok_shape = ok_shape and flips.size == 1
    first_bad = None
    if not ok_shape and d2.size:
        first_bad = float(xs[1])
    checks["single_inflection"] = (ok_shape, first_bad)

    x0 = PERCEPTION_FIXED_POINT
    step = 1.0 / (SHAPE_GRID_SIZE + 1)
    below = xs < x0 - step
    above = xs > x0 + step
    over_ok = bool(np.all(ws[below] > xs[below]))
    under_ok = bool(np.all(ws[above] < xs[above]))
    viol = None
    if not over_ok:
        viol = float(xs[below][np.nonzero(ws[below] <= xs[below])[0][0]])
    elif not under_ok:
        viol = float(xs[above][np.nonzero(ws[above] >= xs[above])[0][0]])
    checks["crosses_identity_at_1_over_e"] = (over_ok and under_ok, viol)

    slope0 = weight_derivative(spec, x0)
    checks["slope_below_one_at_inflection"] = (slope0 < 1.0, None if slope0 < 1.0 else x0)

    offsets = (1e-6, 1e-9, 1e-12)
    ok_div = True
    where = None
    for edge in (0.0, 1.0):
        points = [edge + o if edge == 0.0 else edge - o for o in offsets]
        grads = [weight_derivative(spec, p) for p in points]
        if not (grads[0] < grads[1] < grads[2] and grads[2] > 10.0):
            ok_div = False
            where = points[-1]
            break
    checks["endpoint_derivative_divergence"] = (ok_div, where)

    passed = all(ok for ok, _ in checks.values())
    return InverseSShapeReport(spec, passed=passed, skipped=False, checks=checks)
