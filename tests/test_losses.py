import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shuffle_sgd as ss
from shuffle_sgd.losses import LossModel, derivative_vec, regularity, value_vec

import oracles


def model(family, targets):
    return LossModel(family, np.asarray(targets, float))


def value(m, z):
    """The loss of component 0 at pre-activation z."""
    return float(value_vec(m, np.array([0]), np.array([z]))[0])


def derivative(m, z, i=0):
    """The (sub)derivative of component i at pre-activation z."""
    return float(derivative_vec(m, np.array([i]), np.array([z]))[0])


class TestValues:
    def test_squared(self):
        assert value(model("squared", [1.0]), 0.0) == 0.5

    def test_hinge_margin_satisfied(self):
        assert value(model("hinge", [1.0]), 2.0) == 0.0

    def test_logistic_at_zero(self):
        assert value(model("logistic", [1.0]), 0.0) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_absolute(self):
        assert value(model("absolute", [2.0]), -1.0) == 3.0


class TestDerivatives:
    def test_squared(self):
        assert derivative(model("squared", [1.0]), 0.0) == -1.0

    def test_logistic_at_zero(self):
        assert derivative(model("logistic", [1.0]), 0.0) == pytest.approx(-0.5)

    def test_hinge_kink_returns_flat_side(self):
        assert derivative(model("hinge", [1.0]), 1.0) == 0.0

    def test_absolute_kink(self):
        assert derivative(model("absolute", [1.0]), 1.0) == 0.0

    @given(
        st.sampled_from(["squared", "logistic", "hinge", "absolute"]),
        st.sampled_from([-1.0, 1.0, 2.0]),
        st.floats(-20, 20),
    )
    def test_matches_reference(self, family, t, z):
        m = model(family, [t])
        assert derivative(m, z) == pytest.approx(
            oracles.scalar_derivative(family, t, z), abs=1e-12
        )

    @given(
        st.sampled_from(["squared", "logistic"]),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-10, 10),
    )
    def test_finite_difference_smooth(self, family, t, z):
        m = model(family, [t])
        L = regularity(m).values[0]
        h = 1e-5
        fd = oracles.numeric_derivative(lambda u: value(m, u), z, h)
        assert abs(derivative(m, z) - fd) <= L * h + 1e-8

    @given(
        st.sampled_from(["hinge", "absolute"]),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-10, 10),
    )
    def test_finite_difference_away_from_kinks(self, family, t, z):
        m = model(family, [t])
        # kinks sit at z = 1/t (hinge) and z = t (absolute)
        kink = 1.0 / t if family == "hinge" else t
        if abs(z - kink) < 1e-3:
            z = kink + 0.01
        fd = oracles.numeric_derivative(lambda u: value(m, u), z)
        assert derivative(m, z) == pytest.approx(fd, abs=1e-8)


class TestLogisticExtremeMargins:
    MARGINS = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])  # t z

    @pytest.mark.parametrize("t", [1.0, -1.0, 0.5])
    def test_finite_warning_free_and_exact(self, t):
        m = model("logistic", np.full(5, t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = derivative_vec(m, np.arange(5), self.MARGINS / t)
        assert np.all(np.isfinite(g))
        for got, tz in zip(g, self.MARGINS):
            try:
                want = -t / (1.0 + math.exp(tz))
            except OverflowError:  # e^800: the derivative underflows to 0
                assert got == 0.0
                continue
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)


class TestRegularityConstants:
    def test_logistic_unit_labels(self):
        reg = regularity(model("logistic", [1.0, -1.0, 1.0]))
        assert np.allclose(reg.values, 0.25)

    def test_hinge_gamma_stores_squares(self):
        reg = regularity(model("hinge", [1.0, -2.0]))
        assert np.allclose(reg.values, [1.0, 4.0])

    def test_zero_constant_floored(self):
        reg = regularity(model("hinge", [0.0]))
        assert reg.values[0] > 0

    @given(
        st.sampled_from(["squared", "logistic"]),
        st.floats(-3, 3),
        st.floats(-15, 15),
        st.floats(-15, 15),
    )
    def test_smoothness_bound_holds(self, family, t, z1, z2):
        m = model(family, [t])
        L = regularity(m).values[0]
        d1 = derivative(m, z1)
        d2 = derivative(m, z2)
        assert abs(d1 - d2) <= L * abs(z1 - z2) + 1e-9

    @given(
        st.sampled_from(["hinge", "absolute"]),
        st.floats(-3, 3),
        st.floats(-15, 15),
    )
    def test_lipschitz_bound_holds(self, family, t, z):
        m = model(family, [t])
        G = math.sqrt(regularity(m).values[0])
        assert abs(derivative(m, z)) <= G + 1e-9


class TestConjugatePair:
    def test_zero_residuals(self):
        ds = ss.SparseDataset.from_dense(np.eye(2), labels=[1.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert np.allclose(ss.conjugate_pair(m, ds, np.array([1.0, 2.0])), 0.0)

    def test_scalar_residuals(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0], [1.0]]), labels=[0.0, 2.0])
        m = LossModel.for_dataset("squared", ds)
        assert np.allclose(ss.conjugate_pair(m, ds, np.array([1.0])), [1.0, -1.0])

    def test_hinge_satisfied_margin(self):
        ds = ss.SparseDataset.from_dense(np.array([[1.0]]), labels=[1.0])
        m = LossModel.for_dataset("hinge", ds)
        assert ss.conjugate_pair(m, ds, np.array([2.0]))[0] == 0.0

    def test_matches_per_component_derivative(self, rng):
        from conftest import random_sparse_dataset

        ds = random_sparse_dataset(rng)
        x = rng.standard_normal(ds.d)
        for family in ("squared", "logistic", "hinge", "absolute"):
            m = LossModel.for_dataset(family, ds)
            y = ss.conjugate_pair(m, ds, x)
            A = ds.to_dense()
            for i in range(ds.n):
                assert y[i] == pytest.approx(
                    derivative(m, float(A[i] @ x), i), abs=1e-12
                )


class TestDualUpdateConsistency:
    def test_conjugate_pair_equals_blockwise_dual_updates(self, rng):
        from conftest import random_sparse_dataset

        ds = random_sparse_dataset(rng, n=12)
        x = rng.standard_normal(ds.d)
        perm = rng.permutation(12)
        for family in ("squared", "logistic", "hinge", "absolute"):
            m = LossModel.for_dataset(family, ds)
            y = ss.conjugate_pair(m, ds, x)
            for b in (1, 3, 4, 12):
                layout = ss.BlockLayout(ds, perm, b)
                stitched = np.concatenate(
                    [ss.dual_block_update(m, layout, i, x) for i in range(12 // b)]
                )
                assert np.allclose(stitched, y[perm], rtol=1e-14, atol=1e-15)


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            model("huber", [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_regularity_entries_must_be_finite_and_positive(self, bad):
        # a NaN weight would reach full_gradient_L, which would blame Lanczos
        with pytest.raises(ValueError, match="finite and strictly positive"):
            ss.RegularityDiag([bad, 1.0, 2.0, 3.0])
