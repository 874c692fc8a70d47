"""Physical constants and the Matsubara frequency ladder.

Unit conventions used throughout the package:

* every frequency, imaginary frequency and transverse wavevector is carried
  as an energy in eV (wavevectors enter as k_hat = hbar*c*k_perp),
* separations in micrometers, temperatures in kelvin,
* pressures accumulate in eV/um^3 and are converted to Pa at the end.

Keeping everything in eV turns each formula into ratios of energies plus a
single conversion factor on the way out.
"""

from dataclasses import dataclass

from .errors import DomainError

TWO_PI = 6.283185307179586


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-derived values, fixed at build time."""

    hbar_c: float = 0.19732697            # eV um
    boltzmann: float = 8.617333e-5        # eV / K
    ev_per_um3_to_pascal: float = 0.1602177   # 1 eV/um^3 in Pa
    # Fermi velocity of Au, 1.38e6 m/s, over the speed of light.
    fermi_velocity_ratio_default: float = 1.38e6 / 299_792_458.0


CONSTANTS = PhysicalConstants()


def matsubara_xi(l, temperature):
    """Energy of the l-th Matsubara frequency, 2*pi*k_B*T*l, in eV.

    Exactly linear in l so that xi(l) == l * xi(1) to machine precision.
    """
    if temperature <= 0.0:
        raise DomainError(f"temperature must be positive, got {temperature}")
    if l < 0:
        raise DomainError(f"Matsubara index must be >= 0, got {l}")
    return TWO_PI * CONSTANTS.boltzmann * temperature * l


def pressure_to_pascal(p_ev_um3):
    """Convert a pressure from eV/um^3 to Pa."""
    return p_ev_um3 * CONSTANTS.ev_per_um3_to_pascal
