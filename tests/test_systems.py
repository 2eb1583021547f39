import math

import numpy as np
import pytest

from fodeabm import HindmarshRoseParams, rhs_constant, rhs_hindmarsh_rose, rhs_linear, rhs_power_law

TWO_OVER_GAMMA_2_5 = 1.5045055561273500985


class TestConstant:
    def test_zero(self):
        f = rhs_constant([0.0])
        assert f(0.3, np.array([9.9]))[0] == 0.0

    def test_vector_value(self):
        f = rhs_constant([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(f(7.0, np.zeros(3)), [1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rhs_constant([float("inf")])


class TestPowerLaw:
    def test_forcing_value_at_one(self):
        f = rhs_power_law(0.5, 2.0)
        assert f(1.0, None)[0] == pytest.approx(TWO_OVER_GAMMA_2_5, rel=1e-14)

    def test_zero_at_origin(self):
        assert rhs_power_law(0.5, 2.0)(0.0, None)[0] == 0.0

    def test_alpha_one_beta_one_is_unit(self):
        f = rhs_power_law(1.0, 1.0)
        for t in (0.1, 0.5, 3.0):
            assert f(t, None)[0] == pytest.approx(1.0, rel=1e-15)

    def test_beta_equal_alpha_is_constant_forcing(self):
        f = rhs_power_law(0.5, 0.5)
        want = 1.0 / math.gamma(1.5) * math.gamma(1.5)  # Gamma(1.5)/Gamma(1) = 0.886...
        for t in (0.0, 0.5, 2.0):
            assert f(t, None)[0] == pytest.approx(math.gamma(1.5), rel=1e-15)

    def test_rejects_beta_below_alpha(self):
        with pytest.raises(ValueError):
            rhs_power_law(0.8, 0.3)


class TestLinear:
    def test_zero_rate(self):
        f = rhs_linear(0.0)
        np.testing.assert_array_equal(f(0.0, np.array([2.0, -1.0])), [0.0, -0.0])

    def test_scales_state(self):
        f = rhs_linear(-2.0)
        np.testing.assert_allclose(f(1.0, np.array([1.5])), [-3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rhs_linear(float("nan"))


class TestHindmarshRose:
    def test_value_at_origin_with_defaults(self):
        f = rhs_hindmarsh_rose()
        got = np.asarray(f(0.0, (0.0, 0.0, 0.0)))
        np.testing.assert_allclose(got, [3.25, 1.0, 0.0384], rtol=1e-15)

    def test_origin_fixed_point_without_drive(self):
        params = HindmarshRoseParams(c=0.0, x_rest=0.0, i_ext=0.0)
        got = np.asarray(rhs_hindmarsh_rose(params)(0.0, (0.0, 0.0, 0.0)))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0])

    def test_autonomous(self):
        f = rhs_hindmarsh_rose()
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            state = tuple(rng.uniform(-5, 5, size=3))
            t = rng.uniform(0, 1e6)
            assert f(t, state) == f(0.0, state)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HindmarshRoseParams(r=0.0)
        with pytest.raises(ValueError):
            HindmarshRoseParams(a=float("nan"))

    def test_defaults_are_standard_constants(self):
        p = HindmarshRoseParams()
        assert (p.a, p.b, p.c, p.d) == (1.0, 3.0, 1.0, 5.0)
        assert (p.r, p.s, p.x_rest, p.i_ext) == (0.006, 4.0, -1.6, 3.25)

    def test_python_floats_bitwise_equal_to_numpy_scalar_formula(self):
        # the rhs unpacks to Python floats; the same operations on numpy
        # float64 scalars must round identically, whatever the state's form
        rng = np.random.default_rng(2024)
        for p in (HindmarshRoseParams(), HindmarshRoseParams(a=1.3, d=4.7, r=0.01, x_rest=-1.2)):
            f = rhs_hindmarsh_rose(p)
            columns = rng.uniform(-3.0, 3.0, size=(3, 40))
            for j in range(columns.shape[1]):
                col = columns[:, j]
                x, y, z = (np.float64(v) for v in col)
                x2 = x * x
                want = np.array(
                    [
                        y - p.a * x2 * x + p.b * x2 - z + p.i_ext,
                        p.c - p.d * x2 - y,
                        p.r * (p.s * (x - p.x_rest) - z),
                    ]
                )
                assert not col.flags.c_contiguous
                for state in (col, np.array(col), tuple(col.tolist()), col.tolist()):
                    got = f(0.0, state)
                    assert isinstance(got, tuple) and len(got) == 3
                    assert all(type(v) is float for v in got)
                    assert np.array(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_same_floats_for_every_state_form(self):
        # solves pass a float64 ndarray, whose list is taken as it is; any
        # other state is converted first, so every form gives the same bits
        f = rhs_hindmarsh_rose()
        rng = np.random.default_rng(11)
        for values in rng.integers(-4000, 4000, size=(30, 3)):
            columns = np.zeros((3, 5))
            columns[:, 2] = values
            forms = (
                values.tolist(),
                tuple(values.tolist()),
                values,
                values.astype(np.float32),
                columns[:, 2],
            )
            assert values.dtype.kind == "i" and not columns[:, 2].flags.c_contiguous
            want = f(0.0, values.astype(np.float64))
            assert all(type(v) is float for v in want)
            for state in forms:
                got = f(0.0, state)
                assert type(got) is tuple and all(type(v) is float for v in got)
                assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
