"""Tabulated optical constants and the interband core function.

Measured optical data enter as rows of photon energy and complex index of
refraction (E, n, k).  The dissipative part of the permittivity is
Im eps = 2nk.  Subtracting the free-electron (Drude) part and clamping at
zero isolates the interband contribution, whose dispersion integral

    eps_core(i xi) = 1 + (2/pi) int x Im eps_ib(x) / (x^2 + xi^2) dx

replaces the unity of an analytic model when wrapped as WithCore.  The
integral is evaluated by the trapezoid rule on the measured grid; the
table is the only information available, so higher-order schemes would
just invent smoothness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParseError
from .response import Drude, DrudeParams, eval_real_axis


@dataclass(frozen=True)
class OpticalTable:
    """Validated (E, n, k) rows with strictly increasing energies in eV."""

    energy: np.ndarray
    n: np.ndarray
    k: np.ndarray

    @property
    def min_energy(self) -> float:
        return float(self.energy[0])

    @property
    def max_energy(self) -> float:
        return float(self.energy[-1])

    def im_eps(self) -> np.ndarray:
        """Im eps = 2nk on the table grid."""
        return 2.0 * self.n * self.k


class InterbandImEps(NamedTuple):
    """Interband Im eps on the source table grid; zero outside its support."""

    energy: np.ndarray
    im_eps: np.ndarray


def parse_optical_table(lines) -> OpticalTable:
    """Parse whitespace-separated "E n k" rows; '#' starts a comment.

    Accepts any iterable of text lines (an open file does).  Row order is
    checked, never repaired: out-of-order data mean a broken file.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    energies, ns, ks = [], [], []
    last_e = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        cols = text.split()
        if len(cols) != 3:
            raise ParseError(f"expected 3 columns 'E n k', got {len(cols)}",
                             line=lineno)
        try:
            e, n, k = (float(c) for c in cols)
        except ValueError:
            raise ParseError(f"non-numeric value in {text!r}", line=lineno)
        if not all(map(math.isfinite, (e, n, k))):
            raise ParseError(f"non-finite value in {text!r}", line=lineno)
        if e <= 0.0:
            raise ParseError(f"energy must be positive, got {e}", line=lineno)
        if n < 0.0 or k < 0.0:
            raise ParseError("negative n or k", line=lineno)
        if last_e is not None and e <= last_e:
            raise ParseError(
                f"energies must be strictly increasing ({e} after {last_e})",
                line=lineno)
        last_e = e
        energies.append(e)
        ns.append(n)
        ks.append(k)
    if len(energies) < 2:
        raise ParseError(f"need at least 2 data rows, got {len(energies)}")
    return OpticalTable(np.array(energies), np.array(ns), np.array(ks))


def drude_im_eps(drude: DrudeParams, omega):
    """Dissipative part of the Drude permittivity on the real axis."""
    return eval_real_axis(Drude(drude), omega).eps_t.imag


def interband_im_eps(table: OpticalTable, drude: DrudeParams) -> InterbandImEps:
    """Im eps with the free-electron part removed, clamped at zero.

    Applied over the full table range: low-energy rows mix free-electron and
    interband weight, and subtraction is the standard way to split them.
    """
    if table.max_energy < 2.0:
        raise DomainError(
            f"table ends at {table.max_energy} eV, below the interband "
            "region (needs coverage to at least 2 eV)")
    residual = table.im_eps() - drude_im_eps(drude, table.energy)
    return InterbandImEps(table.energy, np.maximum(residual, 0.0))


def core_imag_axis(ib: InterbandImEps, xi: float) -> float:
    """Interband core at imaginary frequency i*xi, trapezoid on the grid."""
    if xi <= 0.0:
        raise DomainError(f"xi must be positive, got {xi}")
    x = ib.energy
    integrand = x * ib.im_eps / (x * x + xi * xi)
    return 1.0 + (2.0 / math.pi) * float(np.trapezoid(integrand, x))


@dataclass(frozen=True)
class CoreTable:
    """Core function precomputed on a frequency grid, linearly interpolated.

    Above the grid the excess over unity is extrapolated with the 1/xi^2
    decay of the dispersion kernel; below the grid the first value is held.
    """

    xi_grid: np.ndarray
    core_values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        if len(self.xi_grid) == 0:
            raise DomainError("empty core grid")
        if np.any(np.diff(self.xi_grid) <= 0.0) or self.xi_grid[0] <= 0.0:
            raise DomainError("core grid must be positive and increasing")

    def value_at(self, xi):
        """Core value at xi > 0, a float for a scalar and an array for an
        array of frequencies."""
        x = np.asarray(xi, dtype=float)
        if not np.all(x > 0.0):                     # NaN fails too
            raise DomainError(f"xi must be positive, got {np.min(x)}")
        top = self.xi_grid[-1]
        values = np.where(x > top,
                          1.0 + (self.core_values[-1] - 1.0) * (top / x) ** 2,
                          np.interp(x, self.xi_grid, self.core_values))
        return float(values) if values.ndim == 0 else values


def build_core_table(ib: InterbandImEps, xi_grid: Sequence[float],
                     provenance: str = "") -> CoreTable:
    grid = np.asarray(xi_grid, dtype=float)
    values = np.array([core_imag_axis(ib, xi) for xi in grid])
    return CoreTable(grid, values, provenance)
