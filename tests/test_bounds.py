import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shuffle_sgd as ss
from shuffle_sgd.bounds import BoundInputs, base_step


class TestSmoothRRStep:
    def test_interpolation_keeps_base_step(self):
        inp = BoundInputs(n=8, b=2, K=5, hatL=0.7, tildeL=1.1, sigma_star=0.0, D=1.0)
        assert ss.step_size_smooth_rr(inp) == base_step(inp)

    def test_full_batch_keeps_base_step(self):
        inp = BoundInputs(n=8, b=8, K=5, hatL=0.7, tildeL=1.1, sigma_star=3.0, D=1.0)
        assert ss.step_size_smooth_rr(inp) == base_step(inp)

    def test_base_value(self):
        inp = BoundInputs(n=2, b=1, K=1, hatL=0.5, tildeL=0.5)
        assert ss.step_size_smooth_rr(inp) == pytest.approx(1.0 / (2.0 * math.sqrt(0.5)))
        assert ss.step_size_smooth_rr(inp) == pytest.approx(0.70711, rel=1e-4)

    def test_variance_cap_binds_for_large_K(self):
        inp = BoundInputs(n=8, b=1, K=10**7, hatL=1.0, tildeL=1.0, sigma_star=5.0, D=1.0)
        eta = ss.step_size_smooth_rr(inp)
        assert eta < base_step(inp)
        cap = (3 * (8 - 1) * 1.0 / (8 * 7 * 9 * 1.0 * 10**7 * 25.0)) ** (1 / 3)
        assert eta == pytest.approx(cap)

    def test_step_never_violates_precondition(self):
        inp = BoundInputs(n=6, b=2, K=3, hatL=2.0, tildeL=1.5, sigma_star=1.0, D=2.0)
        assert ss.step_size_smooth_rr(inp) <= base_step(inp)


class TestSmoothRRBound:
    def test_interpolation_reduces_to_distance_term(self):
        inp = BoundInputs(n=8, b=2, K=4, hatL=1.0, tildeL=1.0, sigma_star=0.0, D=3.0)
        eta = 0.01
        assert ss.bound_rhs_smooth_rr(inp, eta) == pytest.approx(
            2 * 9.0 / (2 * 8) / (4 * eta)
        )

    def test_full_batch_is_gd_bound(self):
        inp = BoundInputs(n=4, b=4, K=2, hatL=1.0, tildeL=1.0, sigma_star=2.0, D=1.0)
        eta = 0.05
        assert ss.bound_rhs_smooth_rr(inp, eta) == pytest.approx(1.0 / (2 * 2 * eta))

    def test_plug_in_arithmetic(self):
        # n=2, b=1, K=1, eta=0.1, tildeL=1, sigma*^2=1, D=1 -> 2.505
        inp = BoundInputs(n=2, b=1, K=1, tildeL=1.0, sigma_star=1.0, D=1.0)
        assert ss.bound_rhs_smooth_rr(inp, 0.1) == pytest.approx(2.505)

    @pytest.mark.parametrize("rhs", [ss.bound_rhs_smooth_rr, ss.bound_rhs_ig], ids=["rr", "ig"])
    def test_warns_above_ceiling(self, rhs):
        inp = BoundInputs(n=4, b=1, K=1, hatL=1.0, tildeL=1.0, sigma_star=0.0, D=1.0)
        with pytest.warns(UserWarning, match="guarantee does not apply"):
            rhs(inp, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rhs(inp, base_step(inp))

    def test_monotone_in_K_at_constant_step(self):
        vals = []
        for K in (1, 2, 4, 8, 16):
            inp = BoundInputs(n=8, b=2, K=K, tildeL=1.0, sigma_star=1.0, D=1.0)
            vals.append(ss.bound_rhs_smooth_rr(inp, 0.01))
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestIGPair:
    def test_interpolation(self):
        inp = BoundInputs(n=8, b=2, K=4, hatL=1.0, tildeL=1.0, D=2.0)
        assert ss.step_size_ig(inp) == base_step(inp)
        eta = 0.01
        assert ss.bound_rhs_ig(inp, eta) == pytest.approx(2 * 4.0 / 16.0 / (4 * eta))

    def test_full_batch_error_term_vanishes(self):
        inp = BoundInputs(n=4, b=4, K=2, hatL=1.0, tildeL=1.0, sigma_star=3.0, D=1.0)
        eta = 0.05
        # min(..., 0) = 0 since (n - b) = 0
        assert ss.bound_rhs_ig(inp, eta) == pytest.approx(1.0 / (2 * 2 * eta))

    def test_plug_in_arithmetic(self):
        # n=2, b=1, eta=0.1, K=1, hatL=tildeL=0.5, ||y*||^2=2, sigma*^2=1, D=1
        inp = BoundInputs(
            n=2, b=1, K=1, hatL=0.5, tildeL=0.5, sigma_star=1.0, D=1.0,
            ystar_norm=math.sqrt(2.0),
        )
        assert ss.bound_rhs_ig(inp, 0.1) == pytest.approx(2.505)

    def test_branch_selection_matches_min(self):
        # whichever branch the step picks, the bound uses the smaller term
        for ynorm, sig in ((0.1, 5.0), (5.0, 0.1)):
            inp = BoundInputs(
                n=8, b=2, K=100, hatL=1.0, tildeL=1.0, sigma_star=sig, D=1.0,
                ystar_norm=ynorm,
            )
            eta = ss.step_size_ig(inp)
            assert eta <= base_step(inp)
            assert ss.bound_rhs_ig(inp, eta) > 0


class TestNonsmoothPair:
    def test_zero_distance(self):
        inp = BoundInputs(n=4, b=1, K=4, Gbar=1.0, D=0.0)
        assert ss.step_size_nonsmooth(inp) == 0.0
        assert ss.bound_rhs_nonsmooth(inp, 0.0) == 0.0

    def test_step_formula(self):
        # b D / (2 n sqrt(K Gbar)) = 1 / (2*2*2) = 0.125
        inp = BoundInputs(n=2, b=1, K=4, Gbar=1.0, D=1.0)
        assert ss.step_size_nonsmooth(inp) == pytest.approx(0.125)

    def test_bound_at_theoretical_step_closed_form(self):
        # at the theoretical step the bound collapses to 2 sqrt(Gbar) D / sqrt(K)
        for n, b, K, gbar, D in ((2, 1, 4, 1.0, 1.0), (12, 3, 9, 2.5, 0.7)):
            inp = BoundInputs(n=n, b=b, K=K, Gbar=gbar, D=D)
            eta = ss.step_size_nonsmooth(inp)
            assert ss.bound_rhs_nonsmooth(inp, eta) == pytest.approx(
                2.0 * math.sqrt(gbar) * D / math.sqrt(K)
            )

    def test_zero_gbar_with_distance_rejected(self):
        inp = BoundInputs(n=4, b=1, K=4, Gbar=0.0, D=1.0)
        with pytest.raises(ValueError):
            ss.step_size_nonsmooth(inp)


class TestGeneralVariants:
    def test_plug_in(self):
        # n=4, b=2, tildeL^g=2, sigma*^2=1, eta=0.05, K=1, D=1
        inp = BoundInputs(n=4, b=2, K=1, tildeL=2.0, sigma_star=1.0, D=1.0)
        expected = (0.25 + 0.05**3 * 2.0 * 2.0 * 6.0 / (6.0 * 4.0 * 3.0)) / 0.05
        assert ss.bound_rhs_smooth_rr(inp, 0.05) == pytest.approx(expected)

    def test_interpolation(self):
        inp = BoundInputs(n=4, b=2, K=2, tildeL=2.0, sigma_star=0.0, D=1.0)
        assert ss.bound_rhs_smooth_rr(inp, 0.05) == pytest.approx(
            2 * 1.0 / (2 * 4) / (2 * 0.05)
        )


class TestQueryComplexity:
    def test_interpolation_first_term_only(self):
        inp = BoundInputs(n=2, b=1, K=1, hatL=0.5, tildeL=0.5, sigma_star=0.0, D=1.0)
        assert ss.gradient_query_complexity("rr", 0.1, inp) == 15

    def test_inverse_epsilon_scaling(self):
        inp = BoundInputs(n=4, b=1, K=1, hatL=1.0, tildeL=1.0, sigma_star=0.0, D=1.0)
        c1 = ss.gradient_query_complexity("rr", 0.2, inp)
        c2 = ss.gradient_query_complexity("rr", 0.1, inp)
        assert c2 == 2 * c1 or abs(c2 - 2 * c1) <= 1  # ceil rounding

    def test_nonsmooth_formula(self):
        inp = BoundInputs(n=10, b=1, K=1, Gbar=2.0, D=1.5)
        assert ss.gradient_query_complexity("nonsmooth", 0.5, inp) == math.ceil(
            4 * 10 * 2.0 * 2.25 / 0.25
        )

    def test_ig_takes_min_branch(self):
        inp = BoundInputs(
            n=8, b=2, K=1, hatL=1.0, tildeL=1.0, sigma_star=0.0, D=1.0, ystar_norm=0.0
        )
        # both error branches vanish: only the first term remains
        first = 8 * math.sqrt(2.0) / 0.1
        assert ss.gradient_query_complexity("ig", 0.1, inp) == math.ceil(first)

    def test_unknown_kind(self):
        inp = BoundInputs(n=2, b=1, K=1)
        with pytest.raises(ValueError):
            ss.gradient_query_complexity("sgd", 0.1, inp)


class TestVarianceConstantFoundations:
    """The (n-b)(n+b)/(6 b^2 (n-1)) factor comes from summing the
    without-replacement batch variance over an epoch; both ingredients are
    checkable exactly."""

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_masked_sum_closed_form(self, m_blocks, b):
        n = m_blocks * b
        total = sum((n - b * (i - 1)) * b * (i - 1) for i in range(1, m_blocks + 1))
        assert total * 6 * b == n * (n - b) * (n + b)

    def test_without_replacement_variance_identity(self, rng):
        # enumerate all batches: E || mean_batch(v) - mean(v) ||^2 equals
        # (n-b)/(b(n-1)) E_i || v_i - mean(v) ||^2
        import itertools

        for n, b in ((4, 2), (5, 2), (6, 3), (6, 2)):
            V = rng.standard_normal((n, 3))
            mean = V.mean(axis=0)
            per = float(np.mean(np.sum((V - mean) ** 2, axis=1)))
            batches = list(itertools.combinations(range(n), b))
            lhs = float(
                np.mean([
                    np.sum((V[list(c)].mean(axis=0) - mean) ** 2) for c in batches
                ])
            )
            assert lhs == pytest.approx((n - b) / (b * (n - 1)) * per, rel=1e-10)


class TestValidation:
    def test_batch_must_divide(self):
        with pytest.raises(ValueError):
            BoundInputs(n=5, b=2, K=1)

    def test_nonnegative_fields(self):
        with pytest.raises(ValueError):
            BoundInputs(n=4, b=2, K=1, sigma_star=-1.0)

    @given(
        st.integers(1, 6),
        st.integers(1, 50),
        st.floats(0.01, 10),
        st.floats(0.01, 10),
        st.floats(0, 10, allow_subnormal=False),
        st.floats(0, 10, allow_subnormal=False),
    )
    def test_step_positive_and_feasible(self, mb, K, hatL, tildeL, sig, D):
        n = 2 * mb
        inp = BoundInputs(n=n, b=2, K=K, hatL=hatL, tildeL=tildeL, sigma_star=sig, D=D)
        eta = ss.step_size_smooth_rr(inp)
        assert 0 < eta <= base_step(inp) * (1 + 1e-12)
        eta_ig = ss.step_size_ig(inp)
        assert 0 < eta_ig <= base_step(inp) * (1 + 1e-12)
