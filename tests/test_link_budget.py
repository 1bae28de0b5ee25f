import math

import numpy as np
import pytest

from jdrcap import link_budget as lb
from jdrcap.capacity_limits import tradeoff_curve


def paper_link(**kw):
    return lb.LinkParams.from_radii(wavelength=1.55e-6, range=1000.0,
                                    tx_radius=0.07, rx_radius=0.07,
                                    slot_rate=2e8, **kw)


class TestFresnelNumber:
    def test_unity_geometry(self):
        p = lb.LinkParams(wavelength=1e-6, range=1.0, tx_aperture_area=1e-6,
                          rx_aperture_area=1e-6, slot_rate=1.0)
        assert lb.fresnel_number(p) == pytest.approx(1.0)

    def test_paper_apertures(self):
        # arithmetic oracle: (pi 0.07^2)^2 / (1.55e-3)^2
        expected = (math.pi * 0.07 ** 2) ** 2 / (1.55e-6 * 1000.0) ** 2
        assert lb.fresnel_number(paper_link()) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(98.63, abs=0.01)

    def test_bilinear_in_areas(self):
        p = paper_link()
        doubled = lb.LinkParams(wavelength=p.wavelength, range=p.range,
                                tx_aperture_area=2 * p.tx_aperture_area,
                                rx_aperture_area=2 * p.rx_aperture_area,
                                slot_rate=p.slot_rate)
        assert lb.fresnel_number(doubled) == pytest.approx(4 * lb.fresnel_number(p))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lb.LinkParams(wavelength=-1.0, range=1.0, tx_aperture_area=1.0,
                          rx_aperture_area=1.0, slot_rate=1.0)

    @pytest.mark.parametrize("radii", [(-0.07, -0.07), (0.07, -0.07), (0.0, 0.07),
                                       (0.07, math.nan)])
    def test_from_radii_rejects_nonpositive(self, radii):
        # pi r^2 is positive for a negative r, so the sign is checked on the radius
        with pytest.raises(ValueError):
            lb.LinkParams.from_radii(1.55e-6, 1000.0, *radii, 2e8)


class TestModeCount:
    def test_round_two_df(self):
        # geometry engineered so D_f = 100 exactly
        p = lb.LinkParams(wavelength=1e-6, range=1.0, tx_aperture_area=1e-5,
                          rx_aperture_area=1e-5, slot_rate=1.0)
        out = lb.mode_count(p)
        assert out.fresnel_number == pytest.approx(100.0)
        assert out.modes == 200
        assert out.regime_warning is None

    def test_paper_link_supports_required_modes(self):
        out = lb.mode_count(paper_link())
        assert out.modes == 197
        assert out.modes >= 189

    def test_far_field_warning_and_eta(self):
        p = lb.LinkParams(wavelength=1.55e-6, range=1e6, tx_aperture_area=1e-4,
                          rx_aperture_area=1e-4, slot_rate=1.0)
        out = lb.mode_count(p)
        assert out.regime_warning is not None


class TestRequiredModes:
    def test_paper_targets(self):
        n_r, nbar_star, modes = lb.required_modes(10.0, 5.0)
        assert n_r == 0.5
        assert nbar_star == pytest.approx(2.6582e-3, abs=1e-6)
        assert modes == 189

    def test_g_anchor(self):
        n_r, nbar_star, modes = lb.required_modes(2.0, 2.0)
        assert n_r == 1.0
        assert nbar_star == pytest.approx(1.0, rel=1e-9)
        assert modes == 1

    def test_more_pie_needs_more_modes(self):
        _, _, m_lo = lb.required_modes(5.0, 5.0)
        _, _, m_hi = lb.required_modes(10.0, 5.0)
        assert m_hi > m_lo

    def test_tradeoff_consistency(self):
        pie_t, se_t = 10.0, 5.0
        n_r, _, modes = lb.required_modes(pie_t, se_t)
        (se,), (pie,) = tradeoff_curve(modes, [n_r])
        assert se >= se_t * (1 - 1e-6)
        assert pie >= pie_t * (1 - 1e-6)


class TestPowerAndRate:
    def test_paper_percolated_example(self):
        power, rate = lb.power_and_rate(paper_link(n_r=0.5), pie=10.0)
        assert power == pytest.approx(1.28e-11, rel=0.02)
        assert rate == 1e9

    def test_dark_link(self):
        power, rate = lb.power_and_rate(paper_link(n_r=0.0), pie=10.0)
        assert power == 0.0 and rate == 0.0

    def test_linear_in_slot_rate(self):
        slow = lb.LinkParams.from_radii(1.55e-6, 1000.0, 0.07, 0.07, 1e8, n_r=0.5)
        fast = lb.LinkParams.from_radii(1.55e-6, 1000.0, 0.07, 0.07, 2e8, n_r=0.5)
        p1, r1 = lb.power_and_rate(slow, 10.0)
        p2, r2 = lb.power_and_rate(fast, 10.0)
        assert p2 == pytest.approx(2 * p1) and r2 == pytest.approx(2 * r1)

    def test_linear_in_photon_budget(self):
        p1, r1 = lb.power_and_rate(paper_link(n_r=0.25), 10.0)
        p2, r2 = lb.power_and_rate(paper_link(n_r=0.5), 10.0)
        assert p2 == pytest.approx(2 * p1) and r2 == pytest.approx(2 * r1)
