"""Restriction builder, Wald statistic identities, chi-square survival."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from asymcause import (
    build_design,
    catalog,
    decompose,
    fgls_fit,
    run_catalog,
)
from asymcause.errors import SingularityError
from asymcause.montecarlo import DgpConfig, simulate_dgp
from asymcause.sure import CoefficientEstimate
from asymcause.wald import (
    HYPOTHESIS_IDS,
    HypothesisSpec,
    chisq_sf,
    restriction_for,
    wald_test,
)

from conftest import exog_two_equation_system


def standard_components(t_obs=303, seed=0):
    series = simulate_dgp(DgpConfig(drift=(0.1, 0.1), t_obs=t_obs, seed=seed))
    return [decompose(s, "drift") for s in series]


def standard_layout(p_pos=1, p_neg=1, extra=1, t_obs=303, seed=0):
    return build_design(*standard_components(t_obs, seed), p_pos, p_neg, extra)


STANDARD_COMPONENTS = standard_components()


def single_coefficient_estimate(value, variance):
    return CoefficientEstimate(
        coefficients=np.array([value]),
        covariance=np.array([[variance]]),
        omega=np.array([[1.0]]),
        residuals=np.zeros((10, 1)),
        estimator="ols",
    )


def stack_of(estimate, size):
    """A stack of size copies of a single-system estimate."""
    return CoefficientEstimate(
        **{name: np.stack([getattr(estimate, name)] * size)
           for name in ("coefficients", "covariance", "omega", "residuals")},
        estimator=estimate.estimator,
    )


class TestChisqSf:
    def test_five_percent_critical_values(self):
        assert chisq_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
        assert chisq_sf(9.487729, 4) == pytest.approx(0.05, abs=1e-4)

    def test_zero_statistic(self):
        assert chisq_sf(0.0, 5) == 1.0
        assert chisq_sf(5e-324, 3) == 1.0  # x / 2 rounds to zero

    def test_matches_independent_oracle_on_grid(self):
        # odd and even q, the ARCH gate's 100-400, and tails down to 1e-300
        grid = np.logspace(-8, math.log10(4000.0), 40).tolist()
        smallest = 1.0
        with mpmath.workdps(50):
            for q in [*range(1, 41), 50, 64, 99, 100, 101, 200, 256, 400]:
                for x in [*grid, q / 2.0, float(q), q + 3.0 * math.sqrt(2.0 * q)]:
                    expected = mpmath.gammainc(q / 2, x / 2, regularized=True)
                    if expected < mpmath.mpf("1e-300"):
                        continue
                    smallest = min(smallest, float(expected))
                    assert abs(chisq_sf(x, q) - expected) <= 1e-12 * expected, (q, x)
        assert smallest < 1e-290

    def test_far_tail_underflows_to_zero(self):
        assert chisq_sf(1e5, 1) == 0.0
        assert chisq_sf(1e5, 400) == 0.0

    def test_monotone_nonincreasing(self):
        grid = np.linspace(0.0, 60.0, 300)
        for q in (1, 4, 9):
            values = [chisq_sf(x, q) for x in grid]
            assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)


class TestRestrictionBuilder:
    def test_h1_single_unit_row(self):
        system = standard_layout()
        spec = restriction_for("H1", system)
        assert spec.restriction.shape == (1, 20)
        assert spec.dof == 1
        position = np.flatnonzero(spec.restriction[0])
        assert position.size == 1
        entry = system.layout[position[0]]
        assert (entry.name, entry.restricted) == ("beta+_2,1", True)

    def test_h4_difference_row(self):
        system = standard_layout()
        spec = restriction_for("H4", system)
        assert spec.dof == 1
        row = spec.restriction[0]
        names = {system.layout[i].name: row[i] for i in np.flatnonzero(row)}
        assert names == {"beta+_2,1": 1.0, "beta-_2,1": -1.0}
        assert spec.null == "beta+_2,1 - beta-_2,1 = 0"

    def test_h9_joint_dimensions(self):
        system = standard_layout()
        spec = restriction_for("H9", system)
        assert spec.restriction.shape == (4, 20)
        assert spec.dof == 4

    def test_gamma_side_positions(self):
        system = standard_layout()
        spec = restriction_for("H5", system)
        position = np.flatnonzero(spec.restriction[0])[0]
        assert system.layout[position].name == "gamma+_1,1"

    def test_dof_tracks_lag_orders(self):
        system = standard_layout(p_pos=3, p_neg=2, extra=1, t_obs=400)
        assert restriction_for("H1", system).dof == 3
        assert restriction_for("H2", system).dof == 2
        assert restriction_for("H3", system).dof == 5
        assert restriction_for("H4", system).dof == 1
        assert restriction_for("H9", system).dof == 10
        assert restriction_for("H10", system).dof == 2

    def test_sum_restriction_mode(self):
        system = standard_layout(p_pos=3, p_neg=2, extra=1, t_obs=400)
        spec = restriction_for("H1", system, sum_restrictions=True)
        assert spec.dof == 1
        row = spec.restriction[0]
        touched = {system.layout[i].name for i in np.flatnonzero(row)}
        assert touched == {"beta+_2,1", "beta+_2,2", "beta+_2,3"}
        joint = restriction_for("H9", system, sum_restrictions=True)
        assert joint.dof == 4

    @settings(max_examples=60, deadline=None)
    @given(
        p_pos=st.integers(1, 4),
        p_neg=st.integers(1, 4),
        extra=st.integers(0, 2),
        sums=st.booleans(),
    )
    def test_catalog_composition(self, p_pos, p_neg, extra, sums):
        system = build_design(*STANDARD_COMPONENTS, p_pos, p_neg, extra)
        specs = dict(zip(HYPOTHESIS_IDS, catalog(system, sums)))
        # the joint nulls stack their parts, row for row and text for text
        for joint, parts in (("H3", ("H1", "H2")), ("H7", ("H5", "H6")),
                             ("H9", ("H3", "H7")), ("H10", ("H4", "H8"))):
            np.testing.assert_array_equal(
                specs[joint].restriction,
                np.vstack([specs[p].restriction for p in parts]),
            )
            assert specs[joint].null == " and ".join(specs[p].null for p in parts)
        assert specs["H1"].dof == (1 if sums else p_pos)
        assert specs["H2"].dof == (1 if sums else p_neg)
        # a symmetry row is +1 on the P+ lags of the positive equation and -1
        # on the P- lags of the negative one, so it sums to P+ - P-
        for hid in ("H4", "H8", "H10"):
            for row in specs[hid].restriction:
                plus, minus = np.flatnonzero(row == 1.0), np.flatnonzero(row == -1.0)
                assert {system.layout[k].eq_sign for k in plus} == {"+"}
                assert {system.layout[k].eq_sign for k in minus} == {"-"}
                assert row.sum() == p_pos - p_neg
        # only restricted cross-variable lags: no intercept, own lag or
        # augmentation lag is ever restricted
        for spec in specs.values():
            touched = np.flatnonzero(np.any(spec.restriction != 0.0, axis=0))
            for idx in touched:
                entry = system.layout[idx]
                assert entry.restricted and entry.reg_var not in (None, entry.eq_var)

    def test_h9_restricts_exactly_the_causal_coefficients(self):
        # the report's "causal" flag and the catalog read one rule
        system = standard_layout(p_pos=2, p_neg=1, extra=1)
        causal = [entry.name for entry in system.layout if entry.causal]
        assert causal == ["beta+_2,1", "beta+_2,2", "gamma+_1,1", "gamma+_1,2",
                          "beta-_2,1", "gamma-_1,1"]
        touched = np.any(restriction_for("H9", system).restriction != 0.0, axis=0)
        assert touched.tolist() == [entry.causal for entry in system.layout]

    def test_labels_use_variable_names(self):
        series = simulate_dgp(DgpConfig(drift=(0.1, 0.1), t_obs=150, seed=3))
        us, china = (decompose(replace(s, name=name), "drift")
                     for s, name in zip(series, ("US", "China")))
        spec = restriction_for("H1", build_design(us, china, 1, 1))
        assert spec.label == "A rising China does not cause a rising US."

    def test_unknown_id(self):
        system = standard_layout()
        with pytest.raises(ValueError, match="unknown hypothesis"):
            restriction_for("H11", system)


class TestWaldTest:
    def test_w_equals_four_for_two_sigma_coefficient(self):
        estimate = single_coefficient_estimate(2.0, 1.0)
        spec = HypothesisSpec(
            id="H1", restriction=np.array([[1.0]]), label="x", null="c = 0"
        )
        result = wald_test(estimate, spec)
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.p_value == pytest.approx(stats.chi2.sf(4.0, 1), abs=1e-10)

    def test_zero_restriction_vector(self):
        estimate = single_coefficient_estimate(0.0, 2.5)
        spec = HypothesisSpec(id="H1", restriction=np.array([[1.0]]), label="x")
        result = wald_test(estimate, spec)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_q1_equals_squared_t_ratio(self, rng):
        system, _ = exog_two_equation_system(rng)
        fit = fgls_fit(system)
        for idx in (1, 3):  # the two slope coefficients
            row = np.zeros((1, 4))
            row[0, idx] = 1.0
            spec = HypothesisSpec("H1", row, "x")
            t_squared = fit.coefficients[idx] ** 2 / fit.covariance[idx, idx]
            assert wald_test(fit, spec).statistic == pytest.approx(
                t_squared, abs=1e-10
            )

    def test_row_scaling_invariance(self):
        estimate = single_coefficient_estimate(2.0, 1.0)
        base = HypothesisSpec("H1", np.array([[1.0]]), "x")
        scaled = HypothesisSpec("H1", np.array([[5.0]]), "x")
        assert wald_test(estimate, base).statistic == pytest.approx(
            wald_test(estimate, scaled).statistic, rel=1e-12
        )

    def test_nonsingular_row_mixing_invariance(self, rng):
        system, _ = exog_two_equation_system(rng)
        fit = fgls_fit(system)
        rows = np.zeros((2, 4))
        rows[0, 1] = 1.0
        rows[1, 3] = 1.0
        base = HypothesisSpec("H3", rows, "x")
        mixer = np.array([[2.0, 1.0], [0.5, -3.0]])
        mixed = HypothesisSpec("H3", mixer @ rows, "x")
        w0 = wald_test(fit, base).statistic
        w1 = wald_test(fit, mixed).statistic
        assert w1 == pytest.approx(w0, rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        scales=st.tuples(*[st.floats(0.1, 10.0)] * 2),
        signs=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 2),
        angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invariant_to_row_scaling_and_mixing(self, scales, signs, angles, seed):
        # W is unchanged when R becomes M R for any nonsingular M: a row scaling
        # diag(d), and R(a) diag(d) R(b) for rotations R, which spans every 2x2
        # mixer with singular values in [0.1, 10]
        system, _ = exog_two_equation_system(np.random.default_rng(seed))
        fit = fgls_fit(system)
        rows = np.zeros((2, 4))
        rows[0, 1] = 1.0
        rows[1, 3] = 1.0
        scaling = np.diag(np.multiply(scales, signs))

        def rotation(a):
            return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

        mixer = rotation(angles[0]) @ scaling @ rotation(angles[1])
        for restriction, transform in ((rows[:1], scaling[:1, :1]),
                                       (rows, scaling), (rows, mixer)):
            base = wald_test(fit, HypothesisSpec("H3", restriction, "x")).statistic
            moved = HypothesisSpec("H3", transform @ restriction, "x")
            assert wald_test(fit, moved).statistic == pytest.approx(base, rel=1e-8)

    def test_degenerate_restriction_covariance(self):
        estimate = CoefficientEstimate(
            coefficients=np.array([1.0, 1.0]),
            covariance=np.zeros((2, 2)),
            omega=np.eye(2),
            residuals=np.zeros((5, 2)),
            estimator="fgls",
        )
        spec = HypothesisSpec("H1", np.array([[1.0, 0.0]]), "x")
        with pytest.raises(SingularityError, match="degenerate"):
            wald_test(estimate, spec)

    @pytest.mark.parametrize("value, variance", [(1e200, 1e-200), (np.inf, 1.0)])
    def test_a_statistic_that_is_not_finite_names_its_hypothesis(self, value, variance):
        # a statistic that overflows, or an infinite estimate, is an error of
        # its own, not a chi-square argument check; no warning leaks
        spec = HypothesisSpec("H4", np.array([[1.0]]), "x")
        for estimate in (single_coefficient_estimate(value, variance),
                         stack_of(single_coefficient_estimate(value, variance), 3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularityError) as caught:
                    wald_test(estimate, spec)
            assert str(caught.value) == ("H4: the Wald statistic is not finite "
                                         "(the estimate or its covariance overflows)")

    @pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
    def test_one_system_gives_floats_and_a_stack_gives_arrays(self, stack):
        single = single_coefficient_estimate(1.0, 0.25)
        estimate = CoefficientEstimate(
            **{name: np.broadcast_to(getattr(single, name), stack + getattr(single, name).shape)
               for name in ("coefficients", "covariance", "omega", "residuals")},
            estimator=single.estimator,
        )
        result = wald_test(estimate, HypothesisSpec("H1", np.array([[1.0]]), "x"))
        for value in (result.statistic, result.p_value):
            if stack:
                assert isinstance(value, np.ndarray) and value.shape == stack
            else:
                assert isinstance(value, float)
        np.testing.assert_array_equal(result.statistic, np.full(stack, 4.0))
        np.testing.assert_array_equal(result.p_value, np.full(stack, chisq_sf(4.0, 1)))

    def test_dimension_mismatch(self):
        estimate = single_coefficient_estimate(1.0, 1.0)
        spec = HypothesisSpec("H1", np.array([[1.0, 0.0]]), "x")
        with pytest.raises(ValueError, match="columns"):
            wald_test(estimate, spec)

    def test_rank_deficient_restriction_rejected(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="row rank"):
            HypothesisSpec("H3", rows, "x")


class TestCatalog:
    def test_order_and_size(self):
        system = standard_layout()
        specs = catalog(system)
        results = run_catalog(fgls_fit(system), specs)
        assert [r.hypothesis.id for r in results] == list(HYPOTHESIS_IDS)
        assert [r.hypothesis.dof for r in results] == [1, 1, 2, 1, 1, 1, 2, 1, 4, 2]

    def test_zero_coefficients_give_zero_statistics(self):
        system = standard_layout()
        estimate = CoefficientEstimate(
            coefficients=np.zeros(20),
            covariance=np.eye(20),
            omega=np.eye(4),
            residuals=np.zeros((system.effective_sample, 4)),
            estimator="fgls",
        )
        for result in run_catalog(estimate, catalog(system)):
            assert result.statistic == 0.0
            assert result.p_value == 1.0

    def test_joint_statistic_additive_with_block_diagonal_covariance(self):
        system = standard_layout()
        rng = np.random.default_rng(10)
        estimate = CoefficientEstimate(
            coefficients=rng.standard_normal(20) * 0.1,
            covariance=np.diag(rng.uniform(0.5, 2.0, 20)),
            omega=np.eye(4),
            residuals=np.zeros((system.effective_sample, 4)),
            estimator="fgls",
        )
        h1 = wald_test(estimate, restriction_for("H1", system)).statistic
        h2 = wald_test(estimate, restriction_for("H2", system)).statistic
        h3 = wald_test(estimate, restriction_for("H3", system)).statistic
        assert h3 == pytest.approx(h1 + h2, rel=1e-10)
        assert h3 >= max(h1, h2)
