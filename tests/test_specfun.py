import math

import numpy as np
import pytest
from scipy.special import gammaln

from wishminors import DomainError, log_multigamma, log_multigamma_ratio
from wishminors.specfun import _lgamma_diff

LOG_PI = math.log(math.pi)


class TestLogMultigamma:
    def test_univariate_integer(self):
        assert log_multigamma(1, 2.0) == 0.0

    def test_order_two(self):
        # sqrt(pi) * Gamma(2) * Gamma(3/2) = pi/2
        assert log_multigamma(2, 2.0) == pytest.approx(math.log(math.pi / 2), abs=1e-13)

    def test_order_three(self):
        # pi^{3/2} * Gamma(3) * Gamma(5/2) * Gamma(2) = (3/2) pi^2
        want = math.log(1.5) + 2 * LOG_PI
        assert log_multigamma(3, 3.0) == pytest.approx(want, abs=1e-13)

    def test_matches_direct_product(self):
        for p in range(1, 11):
            for beta in np.linspace((p - 1) / 2 + 0.1, (p - 1) / 2 + 25, 20):
                want = p * (p - 1) / 4 * LOG_PI + sum(
                    float(gammaln(beta - j / 2)) for j in range(p)
                )
                assert log_multigamma(p, beta) == pytest.approx(want, abs=1e-11)

    def test_recursion(self):
        # Gamma_p(b) = pi^{(p-1)/2} Gamma(b) Gamma_{p-1}(b - 1/2)
        for p in range(2, 11):
            for beta in np.linspace((p - 1) / 2 + 0.05, (p - 1) / 2 + 30, 50):
                lhs = log_multigamma(p, beta)
                rhs = (
                    (p - 1) / 2 * LOG_PI
                    + float(gammaln(beta))
                    + log_multigamma(p - 1, beta - 0.5)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pole_boundary_rejected(self):
        with pytest.raises(DomainError):
            log_multigamma(3, 1.0)
        with pytest.raises(DomainError):
            log_multigamma(2, 0.5)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            log_multigamma(0, 1.0)


class TestLogMultigammaRatio:
    def test_trivial_shift(self):
        assert log_multigamma_ratio(1, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_shift_exact(self):
        assert log_multigamma_ratio(3, 2.5, 0.0) == 0.0

    @pytest.mark.parametrize(
        "p, beta",
        [
            (p, beta)
            for p in (1, 3, 60)
            for beta in (math.nextafter((p - 1) / 2, math.inf), 11.9, 12.0, 1e300)
            if beta > (p - 1) / 2
        ],
    )
    def test_zero_shift_exact_on_both_branches(self, p, beta):
        # Terms below 12 take the plain lgamma difference, the rest the
        # Stirling form; each gives exactly 0.0 at a zero shift, with no
        # shortcut for it.
        assert log_multigamma_ratio(p, beta, 0.0) == 0.0

    def test_univariate_half_integer(self):
        # Gamma(3.5)/Gamma(1.5) = 2.5 * 1.5
        assert log_multigamma_ratio(1, 1.5, 2.0) == pytest.approx(
            math.log(15 / 4), abs=1e-13
        )

    def test_order_two(self):
        # Gamma(2.5)Gamma(2) / (Gamma(1.5)Gamma(1)) = 1.5
        assert log_multigamma_ratio(2, 1.5, 1.0) == pytest.approx(
            math.log(1.5), abs=1e-13
        )

    def test_consistency_with_direct_difference(self):
        for p in (1, 2, 4, 7):
            base = (p - 1) / 2
            for beta in np.linspace(base + 0.2, base + 12, 15):
                for shift in (0.25, 1.0, 3.5, 10.0):
                    want = log_multigamma(p, beta + shift) - log_multigamma(p, beta)
                    got = log_multigamma_ratio(p, beta, shift)
                    assert got == pytest.approx(want, abs=1e-11)

    def test_monotone_in_shift(self):
        # the ratio grows with shift once every lgamma argument sits past
        # the digamma zero; beta - (p-1)/2 >= 1.5 is a safe bright line.
        # (near the pole the ratio genuinely dips first: psi(0.6) < 0.)
        for p in (1, 2, 5):
            for beta in ((p - 1) / 2 + 1.5, (p - 1) / 2 + 4.0):
                values = [
                    log_multigamma_ratio(p, beta, s) for s in np.linspace(0, 8, 33)
                ]
                assert all(b >= a for a, b in zip(values, values[1:]))

    def test_not_monotone_near_pole(self):
        # documents the dip: for beta just above the pole the first steps
        # of the ratio are negative
        assert log_multigamma_ratio(1, 0.6, 0.25) < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_multigamma_ratio(2, 0.5, 1.0)
        with pytest.raises(DomainError):
            log_multigamma_ratio(1, 1.0, -0.5)


class TestLgammaDiff:
    """lgamma(x + s) - lgamma(x) keeps full relative precision at any x."""

    def test_unit_shift_is_log_beta_at_any_alpha(self):
        # Gamma(b + 1) / Gamma(b) = b, so the chi2(alpha) mean has log alpha/2 here.
        for alpha in np.geomspace(10.0, 1e300, 60):
            got = log_multigamma_ratio(1, alpha / 2, 1.0)
            assert got == pytest.approx(math.log(alpha / 2), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "xs",
        [np.linspace(11.5, 12.5, 21), np.geomspace(1e3, 1e16, 14)],
        ids=["across-branch-point", "large-x"],
    )
    def test_integer_shift_is_pochhammer_sum(self, xs):
        # lgamma(x + n) - lgamma(x) = sum_k log(x + k): no lgamma in the oracle.
        for x in xs:
            for n in (1, 2, 3, 7, 20):
                want = math.fsum(math.log(x + k) for k in range(n))
                assert _lgamma_diff(float(x), float(n)) == pytest.approx(want, rel=4e-15)

    def test_multigamma_integer_shift_is_pochhammer_sum(self):
        for p in (2, 3, 5):
            for beta in (11.75, 12.25, 1e4, 1e15):
                want = math.fsum(math.log(beta + k - j / 2) for j in range(p) for k in range(4))
                assert log_multigamma_ratio(p, beta, 4.0) == pytest.approx(want, rel=4e-15)

    def test_matches_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for x in (3.5, 7.25, 11.75, 12.0, 12.25, 40.0, 1e3, 1e8, 1e16):
                for s in (0.5, 1.5, 3.7, 100.0, 1e6):
                    want = mpmath.loggamma(mpmath.mpf(x) + s) - mpmath.loggamma(x)
                    assert _lgamma_diff(x, s) == pytest.approx(float(want), rel=4e-15)

    def test_overflow_is_inf(self):
        assert _lgamma_diff(1.5, 1e308) == math.inf
        assert _lgamma_diff(20.0, 1e308) == math.inf
        assert _lgamma_diff(20.0, math.inf) == math.inf
