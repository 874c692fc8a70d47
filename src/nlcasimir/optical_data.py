"""Tabulated optical constants and the interband core function.

Measured optical data enter as rows of photon energy and complex index of
refraction (E, n, k).  The dissipative part of the permittivity is
Im eps = 2nk.  Subtracting the free-electron (Drude) part and clamping at
zero isolates the interband contribution, whose dispersion integral

    eps_core(i xi) = 1 + (2/pi) int x Im eps_ib(x) / (x^2 + xi^2) dx

replaces the unity of an analytic model when wrapped as WithCore.  The
integral is evaluated by the trapezoid rule on the measured grid; the
table is the only information available, so higher-order schemes would
just invent smoothness.  That rule is a finite sum of lossless Lorentz
lines, one at each row energy x_j,

    eps_core(i xi) = 1 + sum_j c_j / (x_j^2 + xi^2),
    c_j = (2/pi) w_j x_j Im eps_ib(x_j),

with w_j the trapezoid weights of the grid: the oscillator form of the
core (Bordag, Klimchitskaya, Mohideen and Mostepanenko, Advances in the
Casimir Effect, OUP 2009).  CoreTable holds the lines, so the core is
analytic in xi and exact at every xi >= 0, the static limit included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError, read_rows
from .response import Drude, DrudeParams, eval_real_axis


@dataclass(frozen=True)
class OpticalTable:
    """Validated (E, n, k) rows with strictly increasing energies in eV."""

    energy: np.ndarray
    n: np.ndarray
    k: np.ndarray

    def im_eps(self) -> np.ndarray:
        """Im eps = 2nk on the table grid."""
        return 2.0 * self.n * self.k


class InterbandImEps(NamedTuple):
    """Interband Im eps on the source table grid; zero outside its support."""

    energy: np.ndarray
    im_eps: np.ndarray


def parse_optical_table(lines) -> OpticalTable:
    """Parse "E n k" rows of a text or iterable of lines (an open file is
    one) in the grammar of errors.read_rows: at least 2 rows, n, k >= 0 and
    energies in eV, positive and strictly increasing (checked, not repaired)."""
    rows = []
    for lineno, (e, n, k) in read_rows(lines):
        if e <= 0.0:
            raise ParseError(f"energy must be positive, got {e}", line=lineno)
        if n < 0.0 or k < 0.0:
            raise ParseError("negative n or k", line=lineno)
        if rows and e <= rows[-1][0]:
            raise ParseError(f"energies must be strictly increasing "
                             f"({e} after {rows[-1][0]})", line=lineno)
        rows.append((e, n, k))
    if len(rows) < 2:
        raise ParseError(f"need at least 2 data rows, got {len(rows)}")
    return OpticalTable(*map(np.array, zip(*rows)))


def drude_im_eps(drude: DrudeParams, omega):
    """Dissipative part of the Drude permittivity on the real axis."""
    return eval_real_axis(Drude(drude), omega).eps_t.imag


def interband_im_eps(table: OpticalTable, drude: DrudeParams) -> InterbandImEps:
    """Im eps with the free-electron part removed, clamped at zero.

    Applied over the full table range: low-energy rows mix free-electron and
    interband weight, and subtraction is the standard way to split them.
    """
    if table.energy[-1] < 2.0:
        raise DomainError(
            f"table ends at {table.energy[-1]} eV, below the interband "
            "region (needs coverage to at least 2 eV)")
    residual = table.im_eps() - drude_im_eps(drude, table.energy)
    return InterbandImEps(table.energy, np.maximum(residual, 0.0))


@dataclass(frozen=True)
class CoreTable:
    """The interband core as Lorentz lines: energies x_j in eV, finite and
    positive, and strengths c_j in eV^2, finite and >= 0, one per line."""

    energy: np.ndarray
    strength: np.ndarray

    def __post_init__(self):
        if len(self.energy) != len(self.strength):
            raise DomainError("a core needs one strength per energy")
        # written so that NaN fails too
        if not np.all((0.0 < self.energy) & (self.energy < math.inf)):
            raise DomainError("core energies must be finite and positive")
        if not np.all((0.0 <= self.strength) & (self.strength < math.inf)):
            raise DomainError("core strengths must be finite and >= 0")

    def value_at(self, xi):
        """1 + sum_j c_j/(x_j^2 + xi^2) at xi >= 0, a float for a scalar and
        an array for an array of frequencies.  The lines are added one at a
        time, in table order, so each element has the bits of its own call."""
        x = np.asarray(xi, dtype=float)
        if not np.all(x >= 0.0):                    # NaN fails too
            raise DomainError(f"xi must be >= 0, got {np.min(x)}")
        x2 = x * x
        total = np.zeros(x.shape)
        for e, c in zip(self.energy.tolist(), self.strength.tolist()):
            total += c / (e * e + x2)
        values = 1.0 + total
        return float(values) if values.ndim == 0 else values


def build_core_table(ib: InterbandImEps, xi_grid=None) -> CoreTable:
    """The Lorentz lines of the trapezoid core (module docstring) on ib's
    rows; lines of zero strength add nothing and are left out.  xi_grid is
    not read: it remains for callers that still pass the grid of the
    former tabulated core."""
    x = ib.energy
    ends = np.pad(x, 1, mode="edge")
    strength = (2.0 / math.pi) * (0.5 * (ends[2:] - ends[:-2])) * x * ib.im_eps
    lines = strength > 0.0
    return CoreTable(x[lines], strength[lines])
