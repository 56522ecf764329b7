import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fsmac import (
    SolverConfig,
    beta_star_high_snr,
    correlation_profile_numeric,
    rho_from_beta,
    rho_infinity,
    rho_star,
    snr_critical,
    snr_critical_db,
)
from fsmac import asymptotics
from fsmac.config import load_config


class TestSnrCritical:
    def test_zero_links(self):
        assert snr_critical(0.0, 0.0) == 0.0
        assert snr_critical_db(0.0, 0.0) == float("-inf")

    def test_half_bit_links(self):
        assert abs(snr_critical(0.5, 0.5) - 0.75) <= 1e-15

    def test_nine_tenths(self):
        assert abs(snr_critical(0.9, 0.9) - (2**3.6 - 1) / 4) <= 1e-12
        assert abs(snr_critical(0.9, 0.9) - 2.781) <= 1e-3

    def test_symmetric_in_arguments(self):
        assert snr_critical(0.2, 0.7) == snr_critical(0.7, 0.2)

    @pytest.mark.parametrize("c", [1e-9, 1e-6])
    def test_small_links_keep_relative_precision(self, c):
        # (e^x - 1) / 4 with x = 2c ln 2, by its Taylor series: the terms
        # left out are below 1e-19 of the value at these links
        x = 2.0 * c * math.log(2.0)
        series = (x + x * x / 2.0 + x**3 / 6.0) / 4.0
        assert abs(snr_critical(c, 0.0) - series) <= 4e-16 * series
        assert snr_critical(c / 2, c / 2) == snr_critical(c, 0.0)
        # the subtraction it replaces is off by more than that
        assert abs((2.0 ** (2.0 * c) - 1.0) / 4.0 - series) > 1e-12 * series

    def test_monotone_in_sum(self):
        vals = [snr_critical(c, c) for c in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            snr_critical(-0.1, 0.0)


class TestRhoInfinity:
    def test_zero_links(self):
        assert rho_infinity(0.0, 0.0) == 0.0

    def test_half_bit_links(self):
        assert abs(rho_infinity(0.5, 0.5) - math.sqrt(0.6)) <= 1e-15
        assert abs(rho_infinity(0.5, 0.5) - 0.7746) <= 1e-4

    def test_limit_approaches_one(self):
        assert 1.0 - rho_infinity(6.0, 6.0) < 1e-6
        assert rho_infinity(6.0, 6.0) < 1.0

    def test_symmetric_and_monotone(self):
        assert rho_infinity(0.3, 0.1) == rho_infinity(0.1, 0.3)
        vals = [rho_infinity(c, c) for c in (0.0, 0.1, 0.3, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBetaStarHighSnr:
    def test_no_links_no_cooperation(self):
        assert abs(beta_star_high_snr(5.0, 5.0, 0.0, 0.0) - 1.0) <= 1e-15
        assert rho_from_beta(beta_star_high_snr(5.0, 5.0, 0.0, 0.0)) == 0.0

    def test_equal_powers_reduction(self):
        assert abs(beta_star_high_snr(10.0, 10.0, 0.5, 0.5) - 0.4) <= 1e-15

    def test_unequal_powers_hand_arithmetic(self):
        # (2 + 4)^2 / (20 + 2*8) = 36/36
        assert abs(beta_star_high_snr(4.0, 16.0, 0.0, 0.0) - 1.0) <= 1e-15

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            beta_star_high_snr(0.0, 1.0, 0.1, 0.1)


class TestLinksPastTheFloatRange:
    @pytest.mark.parametrize("c12,c21", [(600.0, 0.0), (300.0, 300.0), (512.0, 0.0)])
    def test_values_at_unbounded_links(self, c12, c21):
        # 2^(2(c12 + c21)) overflows a float: the c = inf values, not an error
        assert snr_critical(c12, c21) == snr_critical(math.inf, 0.0) == math.inf
        assert snr_critical_db(c12, c21) == math.inf
        assert rho_infinity(c12, c21) == rho_infinity(math.inf, 0.0) == 1.0
        assert beta_star_high_snr(2.0, 3.0, c12, c21) == beta_star_high_snr(2.0, 3.0, math.inf, 0.0) == 0.0

    def test_last_finite_factor(self):
        # c12 + c21 just below 512 keeps the finite closed forms
        assert math.isfinite(snr_critical(511.9, 0.0))
        assert rho_infinity(511.9, 0.0) == 1.0
        with pytest.raises(ValueError):
            rho_infinity(600.0, -1.0)


def _beta_exact(p: float, c: float) -> float:
    """The exact private fraction of the symmetric scalar instance (one
    state, unit gains, power p per user, real convention) at total link
    capacity c: the beta in [0, 1] where c + (1/2)log2(1 + 2 beta p) meets
    (1/2)log2(1 + 4p - 2 beta p), clipped."""
    f = 4.0 ** c
    return min(max((1.0 + 4.0 * p - f) / (2.0 * p * (f + 1.0)), 0.0), 1.0)


# the solver budget and seed sweep_correlation.yaml ran its numeric profile with
SHIPPED_SOLVER = SolverConfig(max_steps=4800)


def _shipped_correlation_config():
    path = Path(__file__).resolve().parent.parent / "configs" / "sweep_correlation.yaml"
    return load_config(str(path))


class TestExactSymmetricOptimum:
    def test_numeric_profile_matches_exact_rho(self):
        # sweep_correlation.yaml's links at five of its SNR points, one below
        # the critical SNR (-4.9 dB at c = 0.6), solved at its former budget
        conf = _shipped_correlation_config().objects["conf"]
        snr_db = [-6.0, 0.0, 10.0, 20.0, 40.0]
        prof = correlation_profile_numeric(conf.c12, conf.c21, snr_db, SHIPPED_SOLVER)
        c = conf.c12 + conf.c21
        for s_db, rho in zip(snr_db, prof.rho):
            p = 10.0 ** (s_db / 10.0)
            exact = math.sqrt(1.0 - _beta_exact(p, c))
            assert abs(rho - exact) <= 1e-5, (s_db, rho, exact)
            assert abs(rho - rho_star(p, conf.c12, conf.c21)) <= 1e-5, (s_db, rho)
        assert prof.rho[0] == 1.0 and _beta_exact(10.0 ** -0.6, c) == 0.0

    def test_numeric_profile_within_shipped_claim(self):
        # every SNR point of sweep_correlation.yaml: the solver's rho is within
        # 1e-10 of the exact rho_star, as README states
        obj = _shipped_correlation_config().objects
        conf, snr_db = obj["conf"], obj["snr_db"]
        prof = correlation_profile_numeric(conf.c12, conf.c21, snr_db, SHIPPED_SOLVER)
        for s_db, rho in zip(snr_db, prof.rho):
            assert abs(rho - rho_star(10.0 ** (s_db / 10.0), conf.c12, conf.c21)) <= 1e-10, s_db

    @pytest.mark.parametrize("c", [0.0, 0.1, 0.6, 1.0, 2.5])
    def test_closed_forms_are_its_limits(self, c):
        crit = snr_critical(c / 2, c / 2)
        # beta* = 0 exactly when p <= snr_critical
        for scale in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 10.0):
            p = crit * scale if crit > 0 else scale
            if p > 0:
                assert (_beta_exact(p, c) == 0.0) == (p <= crit), (c, scale)
        # and its p -> inf limit is rho_infinity
        rho = math.sqrt(1.0 - _beta_exact(1e12, c))
        assert abs(rho - rho_infinity(c / 2, c / 2)) <= 1e-9
        assert abs(_beta_exact(1e12, c) - beta_star_high_snr(1e12, 1e12, c / 2, c / 2)) <= 1e-9


class TestRhoStar:
    C_GRID = [0.0, 1e-9, 0.01, 0.1, 0.3, 0.6, 1.0, 2.5, 10.0, 100.0, 511.0]

    @staticmethod
    def _powers(c):
        # 1e-6 to 1e12 in 1 dB steps, and the critical SNR itself
        crit = snr_critical(c / 2, c / 2)
        ps = [10.0 ** (k / 10) for k in range(-60, 121)]
        return ps + [crit * s for s in (1.0, 1.0 + 1e-12, 1.001, 2.0) if crit > 0]

    def test_matches_the_rational_formula(self):
        # _beta_exact's formula in exact rational arithmetic, from the same
        # floats: 4^c - 1 as expm1 forms it, and 4^c
        for c in self.C_GRID:
            f, f_minus_1 = Fraction(2.0 ** (2.0 * c)), Fraction(math.expm1(2.0 * c * math.log(2.0)))
            for p in self._powers(c):
                q = Fraction(p)
                beta = float(min(max((4 * q - f_minus_1) / (2 * q * (f + 1)), 0), 1))
                got = rho_star(p, c / 2, c / 2)
                assert abs((1.0 - got * got) - beta) <= 1e-12, (c, p)

    def test_matches_beta_exact(self):
        # _beta_exact forms 1 + 4p - 4^c, which rounds by up to half an ulp of
        # its largest term; beyond that the two agree to 1e-12 in beta
        eps = 2.0 ** -52
        for c in self.C_GRID:
            f = 4.0 ** c
            for p in self._powers(c):
                rounding = eps * (1.0 + 4.0 * p + f) / (2.0 * p * (f + 1.0))
                got = rho_star(p, c / 2, c / 2)
                assert abs((1.0 - got * got) - _beta_exact(p, c)) <= 1e-12 + rounding, (c, p)

    def test_snr_critical_and_rho_infinity_are_its_limits(self):
        for c in self.C_GRID[:-1]:
            crit = snr_critical(c / 2, c / 2)
            assert rho_star(crit, c / 2, c / 2) == 1.0
            if 0 < c <= 10:  # past that, 1 - beta* rounds to 1 so close to crit
                assert rho_star(crit * (1 + 1e-9), c / 2, c / 2) < 1.0
            assert abs(rho_star(1e30, c / 2, c / 2) - rho_infinity(c / 2, c / 2)) <= 1e-12

    @pytest.mark.parametrize("c12,c21", [(math.inf, 0.0), (0.3, math.inf), (512.0, 0.0), (300.0, 300.0)])
    def test_unbounded_links_fully_correlated(self, c12, c21):
        for p in (1e-17, 1.0, 1e12, 1e300):
            assert rho_star(p, c12, c21) == 1.0

    def test_far_below_unit_power(self):
        # at -170 dB, log2(1 + P) rounds to 0, but the optimum does not
        p = 10.0 ** -17
        assert rho_star(p, 0.3, 0.3) == rho_star(p, 1e-6, 0.0) == 1.0
        assert rho_star(p, 0.0, 0.0) == 0.0

    def test_bad_input_rejected(self):
        for p in (-1.0, math.nan):
            with pytest.raises(ValueError):
                rho_star(p, 0.1, 0.1)
        with pytest.raises(ValueError):
            rho_star(1.0, -0.1, 0.0)


class TestRhoFromBeta:
    def test_endpoints(self):
        assert rho_from_beta(0.0) == 1.0
        assert rho_from_beta(1.0) == 0.0

    def test_mid(self):
        assert abs(rho_from_beta(0.4) - 0.7746) <= 1e-4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rho_from_beta(1.2)


class TestNumericProfile:
    CFG = SolverConfig(max_steps=4000)

    def test_zero_links_uncorrelated_everywhere(self):
        prof = correlation_profile_numeric(0.0, 0.0, [-5.0, 5.0, 20.0], self.CFG)
        assert all(r <= 1e-6 for r in prof.rho)

    def test_below_critical_fully_correlated(self):
        c = 0.3
        low_db = snr_critical_db(c, c) - 0.5
        prof = correlation_profile_numeric(c, c, [low_db], self.CFG)
        assert prof.rho[0] >= rho_from_beta(1e-3)  # beta* below 1e-3

    def test_high_snr_matches_closed_form(self):
        c = 0.3
        prof = correlation_profile_numeric(c, c, [40.0], self.CFG)
        assert abs(prof.rho[0] - rho_infinity(c, c)) / rho_infinity(c, c) <= 0.02

    def test_nonincreasing_beyond_critical(self):
        c = 0.2
        start = snr_critical_db(c, c)
        grid = [start + 1.0, start + 6.0, start + 12.0, start + 24.0]
        prof = correlation_profile_numeric(c, c, grid, self.CFG)
        for a, b in zip(prof.rho, prof.rho[1:]):
            assert b <= a + 1e-3

    def test_lengths(self):
        prof = correlation_profile_numeric(0.1, 0.1, [0.0, 10.0], self.CFG)
        assert len(prof.rho) == len(prof.snr_db) == 2

    def test_nonincreasing_beyond_critical_on_capacity_grid(self):
        # every link pair on the {0, 0.1, ..., 0.5}^2 grid
        cfg = SolverConfig(max_steps=600)
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        for c12 in grid:
            for c21 in grid:
                start = snr_critical_db(c12, c21)
                if start == float("-inf"):
                    start = -20.0
                snrs = [start + 1.0, start + 8.0, start + 20.0]
                prof = correlation_profile_numeric(c12, c21, snrs, cfg)
                for a, b in zip(prof.rho, prof.rho[1:]):
                    assert b <= a + 1e-3, (c12, c21, prof.rho)

    def test_shipped_config_allocations_symmetric(self, monkeypatch):
        # every SNR point of sweep_correlation.yaml is a symmetric problem:
        # both encoders get the same cells, up to rounding
        obj = _shipped_correlation_config().objects
        results = []
        solve = asymptotics.solve_weighted

        def recorded(*args):
            out = solve(*args)
            results.extend(out)
            return out

        monkeypatch.setattr(asymptotics, "solve_weighted", recorded)
        correlation_profile_numeric(obj["conf"].c12, obj["conf"].c21, obj["snr_db"], SHIPPED_SOLVER)
        assert len(results) == len(obj["snr_db"])
        for res in results:
            assert np.allclose(res.alloc.P1.ravel(), res.alloc.P2.ravel(), rtol=1e-9, atol=0)
            assert np.allclose(res.alloc.gamma1.ravel(), res.alloc.gamma2.ravel(), rtol=1e-9, atol=0)
