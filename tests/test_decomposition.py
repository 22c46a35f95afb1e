"""Decomposition: hand oracles, sign invariants, recomposition identity."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymcause import Series, decompose, decomposition
from asymcause.decomposition import (SignedComponents, _fit, decompose_stack,
                                     fit_deterministic, recompose)
from asymcause.errors import DataError

DRIFT, NONE, TREND = "drift", "none", "drift_and_trend"


def deterministic_half(values: np.ndarray, spec: str) -> np.ndarray:
    """Half the fitted deterministic path, rebuilt from fit_deterministic."""
    drift, trend = fit_deterministic(Series(values=values), spec)
    t = np.arange(values.size, dtype=float)
    return (drift * t + trend * t * (t + 1) / 2 + values[0]) / 2.0


def trend_fit_oracle(diffs: np.ndarray) -> tuple:
    """(drift, trend) of the least-squares fit of diffs on [1, t], t = 1..n,
    from the normal equations solved at 40 digits."""
    with mpmath.workdps(40):
        n = len(diffs)
        t = [mpmath.mpf(i) for i in range(1, n + 1)]
        y = [mpmath.mpf(float(v)) for v in diffs]
        normal = mpmath.matrix([[n, mpmath.fsum(t)],
                                [mpmath.fsum(t), mpmath.fsum(i * i for i in t)]])
        right = mpmath.matrix([mpmath.fsum(y), mpmath.fsum(i * v for i, v in zip(t, y))])
        drift, trend = mpmath.lu_solve(normal, right)
        return drift, trend


class TestFitDeterministic:
    def test_drift_is_mean_difference(self):
        series = Series(values=[10.0, 12.0, 11.0, 14.0])
        drift, trend = fit_deterministic(series, DRIFT)
        assert drift == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert trend == 0.0

    def test_exact_linear_walk(self):
        series = Series(values=[0.0, 1.0, 2.0, 3.0])
        drift, trend = fit_deterministic(series, DRIFT)
        assert drift == pytest.approx(1.0, abs=1e-14)
        assert trend == 0.0
        comps = decompose(series, DRIFT)
        # no innovations: both components are the deterministic half
        np.testing.assert_array_equal(comps.positive, [0.0, 0.5, 1.0, 1.5])
        np.testing.assert_array_equal(comps.negative, comps.positive)

    def test_kind_none_is_identity(self, rng):
        series = Series(values=rng.standard_normal(25).cumsum())
        assert fit_deterministic(series, NONE) == (0.0, 0.0)

    def test_trend_recovers_slope(self, rng):
        t = np.arange(200, dtype=float)
        levels = 0.5 * t + 0.05 * t * (t + 1) / 2 + rng.standard_normal(200).cumsum()
        drift, trend = fit_deterministic(Series(values=levels), TREND)
        assert drift == pytest.approx(0.5, abs=0.35)
        assert trend == pytest.approx(0.05, abs=0.01)

    @settings(max_examples=40, deadline=None)
    @given(t_obs=st.integers(3, 500), level=st.floats(-1e6, 1e6), paths=st.integers(1, 3))
    def test_a_constant_series_fits_zero_drift_and_trend(self, t_obs, level, paths):
        # the trend design [1, t] does not depend on the data: a constant path
        # fits drift = trend = 0, and decomposes as under "drift", alone and
        # inside a stack
        series = Series(values=np.full(t_obs, level), name="flat")
        assert fit_deterministic(series, TREND) == (0.0, 0.0)
        trend, drift = decompose(series, TREND), decompose(series, DRIFT)
        np.testing.assert_array_equal(trend.positive, np.full(t_obs, level / 2.0))
        np.testing.assert_array_equal(trend.negative, np.full(t_obs, level / 2.0))
        assert trend.positive.tobytes() == drift.positive.tobytes()
        assert trend.negative.tobytes() == drift.negative.tobytes()
        assert trend.degenerate_warning == drift.degenerate_warning == (
            "series 'flat': no positive innovations; the positive component has "
            "zero stochastic variation")
        levels = np.cumsum(np.random.default_rng(t_obs).standard_normal((paths, 2, t_obs)),
                           axis=-1)
        levels[-1, 1] = level
        stacked = decompose_stack(levels, TREND, ("walk", "flat"))[1]
        assert stacked.positive[-1].tobytes() == drift.positive.tobytes()
        assert stacked.negative[-1].tobytes() == drift.negative.tobytes()
        assert stacked.degenerate_warning == drift.degenerate_warning

    @settings(max_examples=40, deadline=None)
    @given(
        t_obs=st.integers(3, 3000),
        paths=st.integers(1, 3),
        offset=st.floats(-1e4, 1e4),
        drift=st.floats(-10.0, 10.0),
        trend=st.floats(-0.1, 0.1),
        scale=st.floats(1e-3, 1e2),
        seed=st.integers(0, 2**16),
    )
    def test_trend_fit_matches_a_40_digit_oracle(self, t_obs, paths, offset, drift,
                                                  trend, scale, seed):
        # the fit that decompose_stack runs on a stack, and fit_deterministic on
        # each path alone, within 1e-14 RMS increments of the exact fit: the
        # drift, and the trend over the sample's T - 1 steps
        t = np.arange(1, t_obs)
        steps = drift + trend * t + scale * np.random.default_rng(seed).standard_normal(
            (paths, 2, t_obs - 1))
        levels = offset + np.concatenate([np.zeros((paths, 2, 1)), steps.cumsum(-1)], -1)
        fits = []
        with mock.patch.object(decomposition, "_fit",
                               lambda *args: fits.append(_fit(*args)) or fits[-1]):
            decompose_stack(levels, TREND, ("a", "b"))
        stacked_drift, stacked_trend = fits[0]
        for index in np.ndindex(paths, 2):
            alone = fit_deterministic(Series(levels[index]), TREND)
            assert alone == (stacked_drift[index][0], stacked_trend[index][0])
            diffs = np.diff(levels[index])
            rms = float(np.sqrt(np.mean(diffs**2)))
            exact_drift, exact_trend = trend_fit_oracle(diffs)
            assert abs(alone[0] - exact_drift) <= 1e-14 * rms
            assert (t_obs - 1) * abs(alone[1] - exact_trend) <= 1e-14 * rms


class TestDecompose:
    def test_hand_oracle_with_drift(self):
        comps = decompose(Series(values=[10.0, 12.0, 11.0, 14.0]), DRIFT)
        np.testing.assert_allclose(
            comps.positive, [5.0, 19.0 / 3.0, 7.0, 28.0 / 3.0], atol=1e-12
        )
        np.testing.assert_allclose(
            comps.negative, [5.0, 17.0 / 3.0, 4.0, 14.0 / 3.0], atol=1e-12
        )
        np.testing.assert_allclose(
            recompose(comps), [10.0, 12.0, 11.0, 14.0], atol=1e-12
        )

    def test_three_point_no_deterministics(self):
        comps = decompose(Series(values=[0.0, 1.0, -1.0]), NONE)
        np.testing.assert_allclose(comps.positive, [0.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(comps.negative, [0.0, 0.0, -2.0], atol=1e-14)

    def test_strictly_increasing_kind_none_negative_constant(self):
        values = np.array([2.0, 3.5, 5.1, 7.0, 9.4])
        comps = decompose(Series(values=values), NONE)
        np.testing.assert_allclose(comps.negative, np.full(5, 1.0), atol=1e-14)
        assert comps.degenerate_warning is not None
        assert "negative" in comps.degenerate_warning

    def test_innovation_sign_invariants_exact(self, rng):
        # around the deterministic half, the positive component moves by the
        # nonnegative part of each fitted innovation and the negative one by
        # the nonpositive part, so at most one of them moves at each step;
        # rounding of the rebuilt half measured <= 5e-14 over 2000 seeds
        values = rng.standard_normal(300).cumsum() + 5.0
        comps = decompose(Series(values=values), DRIFT)
        half = deterministic_half(values, DRIFT)
        drift, _ = fit_deterministic(Series(values=values), DRIFT)
        fitted = np.diff(values) - drift
        np.testing.assert_allclose(
            np.diff(comps.positive - half), np.maximum(fitted, 0.0), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            np.diff(comps.negative - half), np.minimum(fitted, 0.0), rtol=0, atol=1e-13
        )

    def test_component_monotonicity_around_deterministic_half(self, rng):
        values = 0.3 * np.arange(250) + rng.standard_normal(250).cumsum()
        for spec in (NONE, DRIFT, TREND):
            comps = decompose(Series(values=values), spec)
            half = deterministic_half(values, spec)
            assert np.all(np.diff(comps.positive - half) >= -1e-12)
            assert np.all(np.diff(comps.negative - half) <= 1e-12)

    @pytest.mark.parametrize("spec", [NONE, DRIFT, TREND],
                             ids=["spec0", "spec1", "spec2"])
    def test_recompose_identity_random_walks(self, spec, rng):
        for _ in range(30):
            values = rng.standard_normal(400).cumsum() + rng.normal(scale=10)
            comps = decompose(Series(values=values), spec)
            err = np.max(np.abs(recompose(comps) - values))
            assert err <= 1e-9 * max(1.0, np.max(np.abs(values)))

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
        start=st.floats(-1e6, 1e6),
        spec=st.sampled_from([NONE, DRIFT, TREND]),
    )
    def test_recompose_identity_any_walk(self, steps, start, spec):
        # criterion 01's tolerance, on generated walks of every kind
        values = start + np.concatenate([[0.0], np.cumsum(steps)])
        assume(spec != TREND or np.ptp(values) > 0.0)
        comps = decompose(Series(values=values), spec)
        err = np.max(np.abs(recompose(comps) - values))
        assert err <= 1e-9 * max(1.0, np.max(np.abs(values)))

    def test_shift_equivariance(self, rng):
        values = rng.standard_normal(120).cumsum()
        shift = 7.25
        base = decompose(Series(values=values), DRIFT)
        moved = decompose(Series(values=values + shift), DRIFT)
        np.testing.assert_allclose(
            moved.positive, base.positive + shift / 2.0, atol=1e-10
        )
        np.testing.assert_allclose(
            moved.negative, base.negative + shift / 2.0, atol=1e-10
        )


class TestDecomposeStack:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(3, 60)),
        kind=st.sampled_from([NONE, DRIFT, TREND]),
        monotone=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_a_stack_equals_its_paths_one_by_one(self, shape, kind, monotone, seed):
        # every path's components are those of decompose on it alone, bit for
        # bit; a variable warns when any of its paths does
        steps = np.random.default_rng(seed).standard_normal(shape)
        levels = np.cumsum(np.abs(steps) if monotone else steps, axis=-1)
        names = tuple(f"v{v}" for v in range(shape[1]))
        stack = decompose_stack(levels, kind, names)
        assert len(stack) == shape[1]
        for v, (name, comps) in enumerate(zip(names, stack)):
            alone = [decompose(Series(levels[r, v], name=name), kind) for r in range(shape[0])]
            np.testing.assert_array_equal(comps.positive, [c.positive for c in alone])
            np.testing.assert_array_equal(comps.negative, [c.negative for c in alone])
            assert comps.name == name
            warned = [c.degenerate_warning for c in alone if c.degenerate_warning]
            assert (comps.degenerate_warning is None) == (not warned)
            if comps.degenerate_warning:
                assert comps.degenerate_warning in warned

    def test_constant_paths_are_half_their_level_under_every_kind(self):
        levels = np.random.default_rng(3).standard_normal((4, 2, 30)).cumsum(axis=-1)
        levels[2, 1] = 5.0
        levels[3, 0] = 5.0
        for kind in (NONE, DRIFT, TREND):
            a, b = decompose_stack(levels, kind, ("a", "b"))
            np.testing.assert_array_equal(b.positive[2], np.full(30, 2.5))
            np.testing.assert_array_equal(a.negative[3], np.full(30, 2.5))
            assert b.degenerate_warning.startswith("series 'b': no positive innovations")

    @pytest.mark.parametrize("t_obs, kind", [(2, TREND), (1, DRIFT)])
    def test_paths_shorter_than_a_series_are_rejected(self, t_obs, kind):
        # as Series rejects them, before any fit: no 0/0 trend, no empty sum
        levels = np.zeros((5, 2, t_obs))
        with pytest.raises(DataError, match=f"^series 'a': need at least 3 "
                                            f"observations, got {t_obs}$"):
            decompose_stack(levels, kind, ("a", "b"))

    def test_one_name_per_variable(self):
        for levels, names in [(np.zeros(5), ("a",)), (np.zeros((2, 5)), ("a",)),
                              (np.zeros((3, 2, 5)), ("a", "b", "c"))]:
            with pytest.raises(ValueError, match="one variable per name"):
                decompose_stack(levels, DRIFT, names)


class TestValidation:
    def test_series_too_short(self):
        with pytest.raises(DataError, match="at least 3"):
            Series(values=[1.0, 2.0])

    def test_series_non_finite(self):
        with pytest.raises(DataError, match="non-finite"):
            Series(values=[1.0, np.nan, 2.0])

    def test_timestamp_length_mismatch(self):
        with pytest.raises(DataError, match="timestamps"):
            Series(values=[1.0, 2.0, 3.0], timestamps=("a", "b"))

    def test_unknown_deterministic_kind(self):
        with pytest.raises(ValueError, match="deterministic"):
            decompose(Series(values=[1.0, 2.0, 4.0]), "cubic")

    def test_component_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            SignedComponents(positive=np.zeros(4), negative=np.zeros(3))

    def test_recompose_zeros(self):
        comps = SignedComponents(positive=np.zeros(5), negative=np.zeros(5))
        np.testing.assert_array_equal(recompose(comps), np.zeros(5))
