import math

import numpy as np
import pytest

from fodeabm import (
    corrector_weight_a,
    corrector_weight_c,
    precompute_weights,
    predictor_weight,
)

# reference values computed with a 30-digit independent evaluation (mpmath)
B0_HALF = 1.1283791670955125739  # 1/Gamma(1.5)
B1_HALF = 0.46738995451021813786  # (sqrt(2)-1)/Gamma(1.5)
A0_HALF = 0.62318660601362418382  # (2^1.5-2)/Gamma(2.5)
A10_HALF = 0.17019763901701524634
C0_HALF = 0.37612638903183752463  # 0.5/Gamma(2.5)
C1_HALF = 0.22032973752843147868  # (1-0.5*sqrt(2))/Gamma(2.5)


class TestPredictorWeight:
    @pytest.mark.parametrize("n", [0, 1, 5, 100, 10**6])
    def test_alpha_one_is_rectangle_rule(self, n):
        assert predictor_weight(1.0, n) == pytest.approx(1.0, abs=1e-14)

    def test_half_order_values(self):
        assert predictor_weight(0.5, 0) == pytest.approx(B0_HALF, rel=1e-14)
        assert predictor_weight(0.5, 1) == pytest.approx(B1_HALF, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, -0.3, 1.5, float("nan")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            predictor_weight(alpha, 3)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            predictor_weight(0.5, -1)


class TestCorrectorWeights:
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_alpha_one_interior_is_trapezoid(self, n):
        assert corrector_weight_a(1.0, n) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 9, 500])
    def test_alpha_one_first_node_is_half(self, n):
        assert corrector_weight_c(1.0, n) == pytest.approx(0.5, abs=1e-14)

    def test_half_order_values(self):
        assert corrector_weight_a(0.5, 0) == pytest.approx(A0_HALF, rel=1e-13)
        assert corrector_weight_a(0.5, 10) == pytest.approx(A10_HALF, rel=1e-13)
        assert corrector_weight_c(0.5, 0) == pytest.approx(C0_HALF, rel=1e-14)
        assert corrector_weight_c(0.5, 1) == pytest.approx(C1_HALF, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.18, 0.5, 0.93, 1.0])
    def test_first_node_closed_form(self, alpha):
        want = alpha / math.gamma(alpha + 2.0)
        assert corrector_weight_c(alpha, 0) == pytest.approx(want, rel=1e-14)

    def test_alpha_domain(self):
        for fn in (corrector_weight_a, corrector_weight_c):
            with pytest.raises(ValueError):
                fn(1.2, 0)
            with pytest.raises(ValueError):
                fn(0.0, 0)


class TestPrecompute:
    def test_alpha_one_table(self):
        t = precompute_weights(1.0, 4)
        np.testing.assert_allclose(t.b, np.ones(5), atol=1e-14)
        np.testing.assert_allclose(t.a, np.ones(5), atol=1e-14)
        np.testing.assert_allclose(t.c, np.full(5, 0.5), atol=1e-14)

    def test_element_consistency_bitwise(self):
        # the bulk fill and the single-call path must agree bit for bit
        for alpha in (0.3, 0.5, 0.77, 1.0):
            t = precompute_weights(alpha, 300)
            for n in range(301):
                assert t.b[n] == predictor_weight(alpha, n)
                assert t.a[n] == corrector_weight_a(alpha, n)
                assert t.c[n] == corrector_weight_c(alpha, n)

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
        # single weights stay finite deep into very long runs
        for n in (10**6, 10**7):
            assert math.isfinite(predictor_weight(0.5, n))
            assert math.isfinite(corrector_weight_a(0.5, n))
            assert math.isfinite(corrector_weight_c(0.5, n))
