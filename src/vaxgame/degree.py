"""Empirical degree distributions of uncorrelated networks.

A distribution assigns a node fraction to every degree in a finite,
strictly increasing set of positive integers.  Gaps in the degree set are
allowed; every sum iterates the stored set.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DegreeDistribution", "power_law", "explicit"]

MASS_TOL = 1e-12
MIN_MASS = 1e-15


class DegreeDistribution:
    """Degree set with the fraction of nodes at each degree.

    Parameters
    ----------
    degrees : array_like of int
        Strictly increasing positive degrees.
    mass : array_like of float
        Node fraction per degree; must be positive and sum to one
        within ``1e-12``.
    normalization : float, optional
        Power-law normalization constant; only set by :func:`power_law`.
    exponent : float, optional
        Power-law exponent; only set by :func:`power_law`.
    """

    def __init__(self, degrees, mass, *, normalization=None, exponent=None):
        degrees = np.ascontiguousarray(degrees, dtype=np.int64)
        mass = np.ascontiguousarray(mass, dtype=np.float64)
        if degrees.ndim != 1 or mass.shape != degrees.shape or degrees.size == 0:
            raise ValueError("degrees and mass must be matching nonempty 1-d arrays")
        if degrees[0] < 1:
            raise ValueError("degrees must be positive integers")
        if degrees.size > 1 and np.any(np.diff(degrees) <= 0):
            raise ValueError("degrees must be strictly increasing")
        if not np.all(np.isfinite(mass)) or np.any(mass < MIN_MASS):
            # tiny entries are rejected rather than dropped: every m_d > 0
            raise ValueError(f"every mass entry must be at least {MIN_MASS}")
        total = float(mass.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"mass must sum to 1 within {MASS_TOL}, got {total!r}")
        degrees.setflags(write=False)
        mass.setflags(write=False)
        # the one float64 view of the degrees every kernel multiplies by
        d = degrees.astype(np.float64)
        d.setflags(write=False)
        self.degrees = degrees
        self.float_degrees = d
        self.mass = mass
        self.mean_degree = float(np.sum(d * mass))
        self.second_moment = float(np.sum(d * d * mass))
        self.normalization = normalization
        self.exponent = exponent

    @property
    def d_min(self) -> int:
        return int(self.degrees[0])

    @property
    def d_max(self) -> int:
        return int(self.degrees[-1])

    @property
    def size(self) -> int:
        return int(self.degrees.size)

    def index_of(self, degree: int) -> int:
        """Position of ``degree`` in the sorted degree set; KeyError if absent."""
        k = int(degree)
        i = int(self.degrees.searchsorted(k))
        # past d_max, searchsorted returns the size, one beyond the last index
        if i == self.size or self.degrees[i] != k:
            raise KeyError(f"degree {degree} not in distribution")
        return i

    def mass_of(self, degree: int) -> float:
        return float(self.mass[self.index_of(degree)])

    def neighbor_prob(self, degree: int) -> float:
        """Probability q_d = d*m_d/<d> that a random neighbor has this degree."""
        i = self.index_of(degree)
        return float(self.degrees[i] * self.mass[i] / self.mean_degree)

    def neighbor_probs(self) -> np.ndarray:
        """Neighbor degree distribution over the whole degree set."""
        return self.degrees * self.mass / self.mean_degree

    def same_support(self, other: "DegreeDistribution") -> bool:
        return np.array_equal(self.degrees, other.degrees) and np.array_equal(
            self.mass, other.mass
        )

    def to_json(self) -> dict:
        if self.normalization is not None:
            return {
                "type": "powerlaw",
                "d_min": self.d_min,
                "d_max": self.d_max,
                "beta": self.exponent,
            }
        return {
            "type": "explicit",
            "mass": {str(int(d)): float(m) for d, m in zip(self.degrees, self.mass)},
        }

    @staticmethod
    def from_json(obj: dict) -> "DegreeDistribution":
        kind = obj.get("type")
        # type(), not isinstance: JSON true is a bool, which is an int
        if kind == "powerlaw":
            d_min, d_max, beta = obj["d_min"], obj["d_max"], obj["beta"]
            if type(d_min) is not int or type(d_max) is not int or type(beta) not in (int, float):
                raise TypeError("powerlaw needs integers 'd_min', 'd_max' and a number 'beta'")
            return power_law(d_min, d_max, float(beta))
        if kind == "explicit":
            mass = obj["mass"]
            if not isinstance(mass, dict) or any(type(m) not in (int, float) for m in mass.values()):
                raise TypeError("explicit 'mass' must map degrees to numbers")
            return explicit(mass)
        raise ValueError(f"unknown distribution type {kind!r}")

    def __repr__(self):
        if self.normalization is not None:
            return (
                f"DegreeDistribution(powerlaw beta={self.exponent}, "
                f"degrees {self.d_min}..{self.d_max})"
            )
        return f"DegreeDistribution(explicit, {self.size} degrees)"


def power_law(d_min: int, d_max: int, beta: float) -> DegreeDistribution:
    """Truncated power-law distribution m_d = kappa * d**(-beta).

    The normalization constant kappa = (sum of d**(-beta) over the degree
    set)**(-1) is stored on the result; bound evaluators require it.
    Any positive exponent is accepted here, the analytic bounds check
    their own admissible exponent range.
    """
    if not (1 <= d_min <= d_max):
        raise ValueError(f"invalid degree range [{d_min}, {d_max}]")
    if not beta > 0:
        raise ValueError("power-law exponent must be positive")
    degrees = np.arange(d_min, d_max + 1, dtype=np.int64)
    weights = degrees.astype(np.float64) ** (-float(beta))
    kappa = 1.0 / float(weights.sum())
    mass = kappa * weights
    # guard against a drifted sum after the multiply
    mass = mass / mass.sum()
    return DegreeDistribution(degrees, mass, normalization=kappa, exponent=float(beta))


def explicit(mass_by_degree: dict) -> DegreeDistribution:
    """Distribution from an explicit degree -> fraction mapping."""
    if not mass_by_degree:
        raise ValueError("empty mass mapping")
    items = sorted((int(k), float(v)) for k, v in mass_by_degree.items())
    degrees = [k for k, _ in items]
    mass = [v for _, v in items]
    return DegreeDistribution(degrees, mass)
