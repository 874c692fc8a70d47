"""Sphere-plate force gradient from the plate-plate pressure.

For a sphere of radius R far larger than the separation, the measured
force gradient is the plate-plate pressure scaled by 2 pi R, with
multiplicative corrections for the leading proximity-force error (beta)
and for stochastic surface roughness.  Both corrections default to off
because their values are apparatus-specific and must come from the
experiment being compared against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .constants import TWO_PI
from .errors import DomainError, ParseError, read_rows

BetaLike = Union[float, Callable[[float, float], float]]


@dataclass(frozen=True)
class SpherePlateConfig:
    radius: float              # um
    beta: BetaLike = 0.0       # dimensionless; constant or beta(a, R)
    delta_sphere: float = 0.0  # um, rms roughness
    delta_plate: float = 0.0   # um, rms roughness

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:      # NaN fails too
            raise DomainError(f"radius must be finite and positive, got {self.radius}")
        if not (0.0 <= self.delta_sphere < math.inf
                and 0.0 <= self.delta_plate < math.inf):
            raise DomainError("rms roughness must be finite and >= 0")
        if not (callable(self.beta) or -math.inf < self.beta < math.inf):
            raise DomainError(f"beta must be finite or callable, got {self.beta}")


def force_gradient(a_um: float, config: SpherePlateConfig,
                   pressure: Callable[[float], float]) -> float:
    """Force gradient in N/m at separation a_um, given pressure(a) in Pa.

    -2 pi R [1 + beta a/R] [1 + 10 (delta_s^2 + delta_p^2)/a^2] P(a);
    positive for an attractive (negative) pressure.  Warns when a/R grows
    past 0.1 or the roughness correction passes 0.5, where the leading
    corrections stop being trustworthy.
    """
    if not 0.0 < a_um < math.inf:                  # NaN fails too
        raise DomainError(f"separation must be finite and positive, "
                          f"got {a_um}")
    r = config.radius
    if a_um / r > 0.1:
        warnings.warn(f"a/R = {a_um / r:.3g} is outside the proximity-force "
                      "regime; the beta correction is only the leading term",
                      stacklevel=2)
    beta = config.beta(a_um, r) if callable(config.beta) else config.beta
    rough = 10.0 * (config.delta_sphere**2 + config.delta_plate**2) / a_um**2
    if rough >= 0.5:
        warnings.warn(f"roughness correction {rough:.3g} is not small; "
                      "the second-order treatment is unreliable",
                      stacklevel=2)
    return -TWO_PI * (r * 1e-6) * (1.0 + beta * a_um / r) * (1.0 + rough) \
        * pressure(a_um)


def parse_experiment_csv(text: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read measured gradient rows "a[um], Fprime[N/m], sigma[N/m]" in the
    grammar of errors.read_rows, with a > 0 and sigma >= 0.  Returns
    (a_um, fprime, sigma) arrays."""
    rows = []
    for lineno, row in read_rows(text):
        if row[0] <= 0.0:
            raise ParseError(f"separation must be positive, got {row[0]}",
                             line=lineno)
        if row[2] < 0.0:
            raise ParseError(f"sigma must be >= 0, got {row[2]}", line=lineno)
        rows.append(row)
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2]
