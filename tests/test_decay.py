"""Decay calibration against an independent bisection oracle.

The frozen rate constants below were produced by a standalone bisection
on the closed-form attention ratio before this suite was written.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    AnalysisError,
    ConfigError,
    DecayModel,
    attention_residual,
    calibrate,
)

# Frozen oracle values: rate solving
#   (1 - exp(-rate*floor(0.2 L))) / (1 - exp(-rate*L)) = 0.7
RATE_500 = 0.0119815234
RATE_200 = 0.0299538085
RATE_100 = 0.0599076171


def attention_ratio(rate, length, k):
    ranks = np.arange(1, length + 1)
    w = np.exp(-rate * ranks)
    return w[:k].sum() / w.sum()


class TestCalibrate:
    def test_reference_constant_500(self):
        model = calibrate(500)
        assert abs(model.rate - 0.0120) < 5e-5
        assert model.rate == pytest.approx(RATE_500, abs=1e-9)
        assert abs(attention_residual(model)) < 1e-10

    @pytest.mark.parametrize(
        "length,expected", [(500, RATE_500), (200, RATE_200), (100, RATE_100)]
    )
    def test_frozen_rates(self, length, expected):
        assert calibrate(length).rate == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("length", [500, 200, 100, 700, 57])
    def test_constraint_holds_numerically(self, length):
        model = calibrate(length)
        k = math.floor(0.2 * length)
        assert attention_ratio(model.rate, length, k) == pytest.approx(0.7, abs=1e-10)

    def test_default_amplitude_unit_at_rank_1(self):
        model = calibrate(500)
        assert model.amplitude == pytest.approx(math.exp(model.rate))
        # exp(rate) * exp(-rate) rounds to 1 - 2**-53, 1 - 2**-52 or
        # 1 + 2**-52 for some lengths, not to 1 exactly
        off = [abs(calibrate(length).visibility(1) - 1.0) for length in range(5, 2001)]
        assert max(off) <= 2.0**-52

    def test_explicit_amplitude_override(self):
        model = calibrate(500, amplitude=1.009)
        assert model.amplitude == 1.009
        assert model.rate == pytest.approx(RATE_500, abs=1e-9)
        assert model.visibility(1) == pytest.approx(1.009 * math.exp(-RATE_500))

    def test_scale_covariance(self):
        # The dimensionless constraint pins rate * length approximately.
        base = calibrate(250).rate * 250
        for k in (2, 4):
            scaled = calibrate(250 * k).rate * 250 * k
            assert abs(scaled - base) / base < 0.01

    def test_degenerate_constraint_rejected(self):
        # attention share within 1e-6 of the uniform limit k/L
        with pytest.raises(AnalysisError):
            calibrate(10, 0.5, 0.5 + 1e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length=4),
            dict(length=100, top_fraction=0.0),
            dict(length=100, top_fraction=1.0),
            dict(length=100, attention_fraction=0.0),
            dict(length=100, attention_fraction=1.0),
            dict(length=100, top_fraction=0.7, attention_fraction=0.2),
            dict(length=100, top_fraction=0.7, attention_fraction=0.7),
            dict(length=100, amplitude=5.0),
            dict(length=100, top_fraction=0.001),  # floor(0.001*100) = 0 ranks
        ],
    )
    def test_bad_arguments(self, kwargs):
        with pytest.raises(ConfigError):
            calibrate(**kwargs)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(min_value=5, max_value=2000),
        top=st.floats(min_value=0.05, max_value=0.5),
        attention=st.floats(min_value=0.1, max_value=0.95),
    )
    def test_residual_bound_property(self, length, top, attention):
        k = math.floor(top * length)
        if k < 1 or attention - top < 0.02 or attention - k / length < 1e-3:
            return
        model = calibrate(length, top, attention)
        assert abs(attention_residual(model)) < 1e-10
        assert model.rate > 0


class TestDecayModel:
    def test_visibility_formula(self, pub_model):
        for rank in (1, 7, 100, 500):
            expected = 1.009 * math.exp(-0.0120 * rank)
            assert pub_model.visibility(rank) == pytest.approx(expected, rel=1e-15)

    def test_published_rank_values(self, pub_model):
        assert pub_model.visibility(1) == pytest.approx(0.99697, abs=2e-5)
        assert pub_model.visibility(100) == pytest.approx(0.30392, abs=2e-5)

    def test_strictly_decreasing(self, model500):
        w = model500.weights(500)
        assert np.all(np.diff(w) < 0)
        assert 0 < w[-1] and w[0] <= 1.0

    def test_weights_match_visibility(self, model500):
        w = model500.weights(50)
        assert len(w) == 50
        for r in (1, 25, 50):
            assert w[r - 1] == pytest.approx(model500.visibility(r), rel=1e-15)

    def test_weights_read_only(self, model500):
        w = model500.weights(10)
        with pytest.raises(ValueError):
            w[0] = 2.0

    def test_rank_below_one_rejected(self, model500):
        with pytest.raises(ConfigError):
            model500.visibility(0)
        with pytest.raises(ConfigError):
            model500.weights(0)

    def test_amplitude_cap(self):
        with pytest.raises(ConfigError):
            DecayModel(amplitude=1.2, rate=0.01, reference_length=100)
        # exp(rate) is the largest admissible amplitude
        DecayModel(amplitude=math.exp(0.01), rate=0.01, reference_length=100)

    def test_rate_must_be_positive(self):
        with pytest.raises(ConfigError):
            DecayModel(amplitude=1.0, rate=0.0, reference_length=100)
        with pytest.raises(ConfigError):
            DecayModel(amplitude=1.0, rate=-0.1, reference_length=100)
