"""Free-space-optical link geometry and power/rate arithmetic.

Near-field normal-mode counting via the Fresnel number product, the minimum
mode count for joint PIE/spectral-efficiency targets, and received power and
data rate with pinned CODATA constants for bit-reproducible output.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .capacity_limits import nbar_for_pie

PLANCK = 6.62607015e-34       # J s
LIGHT_SPEED = 299792458.0     # m/s

NEAR_FIELD_MIN_DF = 10.0


@dataclass(frozen=True)
class LinkParams:
    """Geometry and rate parameters of a line-of-sight FSO link.

    Apertures are areas in m^2; ``from_radii`` converts circular radii.
    """

    wavelength: float
    range: float
    tx_aperture_area: float
    rx_aperture_area: float
    slot_rate: float
    n_r: float = 0.0

    def __post_init__(self):
        for name in ("wavelength", "range", "tx_aperture_area", "rx_aperture_area",
                     "slot_rate"):
            if not getattr(self, name) > 0:          # NaN fails too
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.n_r >= 0:
            raise ValueError(f"photon budget n_r must be >= 0, got {self.n_r}")

    @classmethod
    def from_radii(cls, wavelength, range, tx_radius, rx_radius, slot_rate, **kw):
        """Circular apertures of the given radii, which must be > 0; raises
        OverflowError, naming the aperture area, when pi r^2 overflows a double."""
        if not (tx_radius > 0 and rx_radius > 0):
            raise ValueError(f"aperture radii must be > 0, got {tx_radius} and {rx_radius}")
        try:
            tx_area, rx_area = (math.pi * r ** 2 for r in (tx_radius, rx_radius))
        except OverflowError:
            raise OverflowError("aperture area pi r^2 overflows a double") from None
        return cls(wavelength=wavelength, range=range, tx_aperture_area=tx_area,
                   rx_aperture_area=rx_area, slot_rate=slot_rate, **kw)


class ModeCount(NamedTuple):
    """Spatio-polarization mode count with any propagation-regime warning."""

    modes: int
    fresnel_number: float
    regime_warning: str | None


def fresnel_number(params):
    """Fresnel number product D_f = A_t A_r / (lambda L)^2.

    Raises OverflowError, naming D_f, when D_f or (lambda L)^2 leaves the
    range of a double.
    """
    try:
        df = params.tx_aperture_area * params.rx_aperture_area / (
            params.wavelength * params.range) ** 2
    except (OverflowError, ZeroDivisionError):
        df = math.nan
    if not math.isfinite(df):
        raise OverflowError("Fresnel number product A_t A_r / (lambda L)^2 "
                            "leaves the range of a double")
    return df


def mode_count(params):
    """Orthogonal spatio-polarization mode pairs, ~ 2 D_f in the near field.

    Below D_f = 10 the near-field counting is unreliable; the result then
    carries a far-field warning.
    """
    df = fresnel_number(params)
    if not math.isfinite(2.0 * df):
        raise OverflowError(f"mode count 2 D_f overflows a double at D_f = {df:.4g}")
    warning = None
    if df < NEAR_FIELD_MIN_DF:
        warning = (
            f"D_f = {df:.4g} < {NEAR_FIELD_MIN_DF:g}: not in the near field; "
            "2 D_f mode counting is unreliable and per-mode transmissivity ~ D_f"
        )
    return ModeCount(modes=round(2.0 * df), fresnel_number=df, regime_warning=warning)


def required_modes(pie_target, se_target):
    """Minimum modes for simultaneous PIE and spectral-efficiency targets.

    N_R = SE/PIE photons per slot must be spread thin enough that each mode
    runs at the nbar whose ultimate PIE meets the target:
    M = ceil(N_R / nbar*). Raises OverflowError, naming M, when N_R / nbar*
    overflows a double.
    """
    for name, value in (("pie_target", pie_target), ("se_target", se_target)):
        if not value > 0:                           # NaN fails too
            raise ValueError(f"{name} must be > 0, got {value}")
    n_r = se_target / pie_target
    nbar_star = nbar_for_pie(pie_target)
    modes = n_r / nbar_star
    if not math.isfinite(modes):
        raise OverflowError(f"required mode count N_R / nbar* = {n_r:.4g} / {nbar_star:.4g} "
                            "overflows a double")
    return n_r, nbar_star, math.ceil(modes)


def power_and_rate(params, pie):
    """Received optical power (W) and data rate (bit/s) at a given PIE.

    power = N_R (hc/lambda) slot_rate, rate = PIE N_R slot_rate. Raises
    OverflowError when either overflows a double.
    """
    if not pie >= 0:                                # NaN fails too
        raise ValueError(f"PIE must be >= 0, got {pie}")
    photon_energy = PLANCK * LIGHT_SPEED / params.wavelength
    power = params.n_r * photon_energy * params.slot_rate
    rate = pie * params.n_r * params.slot_rate
    if not (math.isfinite(power) and math.isfinite(rate)):
        raise OverflowError(f"power {power} W or rate {rate} bit/s overflows a double")
    return power, rate
