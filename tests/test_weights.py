import math

import numpy as np
import pytest

from fodeabm import core, precompute_weights

# reference values computed with a 30-digit independent evaluation (mpmath)
B0_HALF = 1.1283791670955125739  # 1/Gamma(1.5)
B1_HALF = 0.46738995451021813786  # (sqrt(2)-1)/Gamma(1.5)
A0_HALF = 0.62318660601362418382  # (2^1.5-2)/Gamma(2.5)
A10_HALF = 0.17019763901701524634
C0_HALF = 0.37612638903183752463  # 0.5/Gamma(2.5)
C1_HALF = 0.22032973752843147868  # (1-0.5*sqrt(2))/Gamma(2.5)


@pytest.fixture(scope="module")
def alpha_one():
    # one table reaches every index the alpha=1 identities are checked at
    return precompute_weights(1.0, 10**6)


@pytest.fixture(scope="module")
def half():
    return precompute_weights(0.5, 10)


class TestPredictorWeight:
    @pytest.mark.parametrize("n", [0, 1, 5, 100, 10**6])
    def test_alpha_one_is_rectangle_rule(self, alpha_one, n):
        assert alpha_one.b[n] == pytest.approx(1.0, abs=1e-14)

    def test_half_order_values(self, half):
        assert half.b[0] == pytest.approx(B0_HALF, rel=1e-14)
        assert half.b[1] == pytest.approx(B1_HALF, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.5, float("nan")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            precompute_weights(alpha, 3)


class TestCorrectorWeights:
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_alpha_one_interior_is_trapezoid(self, alpha_one, n):
        assert alpha_one.a[n] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 9, 500])
    def test_alpha_one_first_node_is_half(self, alpha_one, n):
        assert alpha_one.c[n] == pytest.approx(0.5, abs=1e-14)

    def test_half_order_values(self, half):
        assert half.a[0] == pytest.approx(A0_HALF, rel=1e-13)
        assert half.a[10] == pytest.approx(A10_HALF, rel=1e-13)
        assert half.c[0] == pytest.approx(C0_HALF, rel=1e-14)
        assert half.c[1] == pytest.approx(C1_HALF, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.18, 0.5, 0.93, 1.0])
    def test_first_node_closed_form(self, alpha):
        want = alpha / math.gamma(alpha + 2.0)
        assert precompute_weights(alpha, 1).c[0] == pytest.approx(want, rel=1e-14)

    def test_alpha_domain(self):
        for alpha in (1.2, 0.0):
            with pytest.raises(ValueError):
                precompute_weights(alpha, 1)


class TestPrecompute:
    def test_alpha_one_table(self):
        t = precompute_weights(1.0, 4)
        np.testing.assert_allclose(t.b, np.ones(5), atol=1e-14)
        np.testing.assert_allclose(t.a, np.ones(5), atol=1e-14)
        np.testing.assert_allclose(t.c, np.full(5, 0.5), atol=1e-14)

    def test_large_table_finite_positive(self):
        t = precompute_weights(0.5, 1000)
        for arr in (t.b, t.a, t.c):
            assert np.isfinite(arr).all()
            assert (arr > 0).all()

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 1.0])
    def test_sequences_non_increasing(self, alpha):
        # all three weight sequences decay monotonically (constant at alpha=1),
        # so the first entry bounds the whole table
        t = precompute_weights(alpha, 2000)
        for arr in (t.b, t.a, t.c):
            assert (np.diff(arr) <= 1e-15).all()
            assert (arr <= arr[0] + 1e-15).all()

    def test_arrays_read_only(self):
        t = precompute_weights(0.5, 10)
        with pytest.raises(ValueError):
            t.b[0] = 99.0

    def test_validation(self):
        with pytest.raises(ValueError):
            precompute_weights(0.5, 0)
        with pytest.raises(ValueError):
            precompute_weights(-0.1, 10)

    def test_no_overflow_far_out(self):
        # the table's formulas stay finite deep into very long runs; a table
        # this long would take about 240 MB, so the formulas get two entries
        n = np.array([1e6, 1e7])
        for formula in (core._b, core._a, core._c):
            assert np.isfinite(formula(0.5, n)).all()
