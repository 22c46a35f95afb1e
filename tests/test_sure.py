"""Design builder, lag selection, OLS and iterated FGLS."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcause import Series, build_design, decompose, fgls_fit
from asymcause.decomposition import SignedComponents, decompose_stack
from asymcause.errors import (
    InsufficientDataError,
    NotPositiveDefiniteError,
    SingularityError,
)
from asymcause.montecarlo import DgpConfig, simulate_dgp
from asymcause.sure import LayoutEntry, SureSystem, gls_solve, lag_order_table, ols_fit

from conftest import exog_two_equation_system, identical_regressor_system, intercept_system


def components_from_walks(seed, t_obs=300):
    series = simulate_dgp(DgpConfig(drift=(0.2, 0.1), t_obs=t_obs, seed=seed))
    return [decompose(s, "drift") for s in series]


def first_rows(comps, n_obs):
    """The pair of decomposed variables cut to its first n_obs observations."""
    return [SignedComponents(c.positive[:n_obs], c.negative[:n_obs], c.name)
            for c in comps]


def increasing_components(t_obs=120):
    """A strictly increasing series decomposed with kind=none: its negative
    component is deterministic, so it is collinear with the intercept."""
    values = np.linspace(0.0, 30.0, t_obs) + 0.01 + np.abs(
        np.random.default_rng(3).standard_normal(t_obs)).cumsum()
    return decompose(Series(values=values, name="up"), "none")


def var_components(data: np.ndarray, name: str) -> SignedComponents:
    """Wrap simulated component-level data as the positive component."""
    return SignedComponents(positive=data, negative=np.zeros(data.shape[0]), name=name)


def random_system(rng: np.random.Generator, widths, t_obs: int = 40) -> SureSystem:
    """Gaussian design with an intercept and widths[i] columns in equation i."""
    blocks = [np.column_stack([np.ones(t_obs), rng.standard_normal((t_obs, w - 1))])
              for w in widths]
    targets = [x @ rng.standard_normal(x.shape[1]) + rng.standard_normal(t_obs)
               for x in blocks]
    layout = tuple(
        LayoutEntry(f"c{i},{j}", i + 1, "+", None if j == 0 else 1, j > 0)
        for i, w in enumerate(widths)
        for j in range(w)
    )
    return SureSystem(np.stack(targets), np.hstack(blocks), layout)


class TestBuildDesign:
    def test_counts_with_augmentation(self):
        comps = components_from_walks(seed=1, t_obs=303)
        system = build_design(*comps, 1, 1, extra_lags=1)
        assert system.n_equations == 4
        assert system.effective_sample == 301
        assert all(system.design[:, sl].shape == (301, 5) for sl in system.slices)
        assert system.n_coefficients == 20
        restricted = [e for e in system.layout if e.restricted]
        assert len(restricted) == 8  # 4 equations x 2 regressors x 1 restricted lag
        augmented = [
            e for e in system.layout if not e.restricted and e.reg_var is not None
        ]
        assert all(e.name.endswith(",2") for e in augmented)

    def test_asymmetric_orders(self):
        comps = components_from_walks(seed=2, t_obs=200)
        system = build_design(*comps, 2, 1, extra_lags=0)
        assert system.effective_sample == 198
        widths = [sl.stop - sl.start for sl in system.slices]
        assert widths == [5, 5, 3, 3]

    def test_no_augmentation_means_all_slopes_restricted(self):
        comps = components_from_walks(seed=3)
        system = build_design(*comps, 1, 1, extra_lags=0)
        slope_entries = [e for e in system.layout if e.reg_var is not None]
        assert all(e.restricted for e in slope_entries)

    def test_blocks_do_not_mix_signs(self):
        comps = components_from_walks(seed=4, t_obs=120)
        system = build_design(*comps, 1, 1, extra_lags=1)
        start = 2
        for eq in range(2):  # positive equations: columns are lagged positives
            design = system.design[:, system.slices[eq]]
            for lag in (1, 2):
                for j in range(2):
                    col = design[:, 1 + (lag - 1) * 2 + j]
                    np.testing.assert_array_equal(
                        col, comps[j].positive[start - lag : 120 - lag]
                    )
        for eq in range(2, 4):  # negative equations: lagged negatives
            design = system.design[:, system.slices[eq]]
            for lag in (1, 2):
                for j in range(2):
                    col = design[:, 1 + (lag - 1) * 2 + j]
                    np.testing.assert_array_equal(
                        col, comps[j].negative[start - lag : 120 - lag]
                    )

    def test_layout_names_unique_and_complete(self):
        comps = components_from_walks(seed=5)
        system = build_design(*comps, 1, 1, extra_lags=1)
        names = [e.name for e in system.layout]
        assert len(set(names)) == len(names)
        for expected in ("lambda+_1", "lambda-_2", "beta+_2,1", "beta-_1,2",
                         "gamma+_1,1", "gamma-_2,2"):
            assert expected in names

    def test_insufficient_observations(self):
        comps = components_from_walks(seed=6, t_obs=60)
        with pytest.raises(InsufficientDataError):
            build_design(*comps, 20, 20, extra_lags=1)

    def test_bad_arguments(self):
        comps = components_from_walks(seed=7, t_obs=80)
        with pytest.raises(ValueError):
            build_design(*comps, 0, 1)
        with pytest.raises(ValueError):
            build_design(*comps, 1, 1, extra_lags=-1)

    def test_every_equation_gets_its_own_design_array(self):
        # equations of one sign block have equal designs, in columns of their
        # own: on one shared array numpy would form X_i'X_j by syrk instead of
        # gemm, which rounds differently and moves the FGLS estimates by a few
        # parts in a million (TestSureSystem's separate-arrays property)
        system = build_design(*components_from_walks(seed=8), 2, 1, extra_lags=1)
        xs = [system.design[:, sl] for sl in system.slices]
        np.testing.assert_array_equal(xs[0], xs[1])


class TestSelectLags:
    def test_lag_one_system_recovered(self):
        hits = 0
        seeds = 25
        for r in range(seeds):
            comps = components_from_walks(seed=(400, r), t_obs=500)
            if lag_order_table(*comps, 6, "sbc")["selected"] == (1, 1):
                hits += 1
        assert hits >= 0.9 * seeds

    def test_p_max_one_is_trivial(self):
        comps = components_from_walks(seed=8)
        assert lag_order_table(*comps, 1, "sbc")["selected"] == (1, 1)

    def test_p_max_too_large(self):
        comps = components_from_walks(seed=9, t_obs=60)
        with pytest.raises(InsufficientDataError):
            lag_order_table(*comps, 25, "sbc")

    @pytest.mark.parametrize("p_max", [1, 8, 26])
    def test_smallest_sample_leaves_m_residual_degrees_of_freedom(self, p_max):
        # the (m x m) residual covariance of the VAR(p_max) is nonsingular only
        # when t_c = T - p_max rows exceed its 1 + m*p_max columns by m = 2 or more
        comps = components_from_walks(seed=13)
        smallest = 3 * p_max + 3
        table = lag_order_table(*first_rows(comps, smallest), p_max, "sbc")
        assert np.all(np.isfinite(np.concatenate([table["positive"], table["negative"]])))
        with pytest.raises(InsufficientDataError, match=(
                f"leaves {2 * p_max + 2} observations; lag selection needs "
                f"{1 + 2 * p_max} parameters per equation plus 2 residual")):
            lag_order_table(*first_rows(comps, smallest - 1), p_max, "sbc")

    @pytest.mark.parametrize("pairs", [16, 400])
    def test_a_stack_of_pairs_is_rejected_by_its_shape(self, pairs):
        # one pair per call: a stack was misread as one pair, whose error spoke
        # of too few observations (16 pairs) or of a rank-deficient lag (400)
        levels = np.random.default_rng(pairs).standard_normal((pairs, 2, 60)).cumsum(-1)
        components = decompose_stack(levels, "drift", ("var1", "var2"))
        message = (r"^lag selection takes one pair of components, not a stack of shape "
                   rf"\({pairs},\)$")
        with pytest.raises(ValueError, match=message):
            lag_order_table(*components, 1)

    def test_rank_deficient_design_names_the_series(self):
        # in either position the error names the series with the constant component
        up = increasing_components()
        other = components_from_walks(seed=12, t_obs=120)[0]
        message = r"^lag selection: the negative design is rank-deficient at lag 1 of 'up'"
        for pair in ((up, other), (other, up)):
            with pytest.raises(SingularityError, match=message):
                lag_order_table(*pair, 8, "sbc")

    def test_unknown_criterion(self):
        comps = components_from_walks(seed=10)
        with pytest.raises(ValueError, match="criterion"):
            lag_order_table(*comps, 2, "cp")

    @pytest.mark.parametrize("criterion", ["aic", "sbc", "hq", "hjc"])
    def test_all_criteria_run(self, criterion):
        comps = components_from_walks(seed=11, t_obs=400)
        p_pos, p_neg = lag_order_table(*comps, 4, criterion)["selected"]
        assert 1 <= p_pos <= 4 and 1 <= p_neg <= 4

    def test_hjc_is_the_mean_of_sbc_and_hq(self):
        # Hatemi-J's criterion: penalty (ln T_c + 2 ln ln T_c) / 2
        for seed, p_max in itertools.product((41, 42), (1, 3, 8)):
            comps = components_from_walks(seed=seed, t_obs=150)
            hjc, sbc, hq = (lag_order_table(*comps, p_max, c) for c in ("hjc", "sbc", "hq"))
            for sign in ("positive", "negative"):
                np.testing.assert_allclose(hjc[sign], (sbc[sign] + hq[sign]) / 2.0,
                                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("criterion", ["aic", "sbc", "hq"])
    def test_criterion_values_match_textbook_var_fits(self, criterion):
        # oracle: each VAR(p) fitted on its own on the p_max-aligned sample,
        # log det of the residual covariance plus m(1+mp)/T_c times the penalty;
        # on 120 observations and on the smallest admissible T = 3 p_max + 3
        for seed, p_max in itertools.product((31, 32, 33), (1, 2, 3, 4, 8)):
            walks = components_from_walks(seed=seed, t_obs=120)
            for comps in (walks, first_rows(walks, 3 * p_max + 3)):
                table = lag_order_table(*comps, p_max, criterion)
                for sign in ("positive", "negative"):
                    block = np.column_stack([getattr(c, sign) for c in comps])
                    t_c, m = block.shape[0] - p_max, block.shape[1]
                    penalty = {"aic": 2.0, "sbc": np.log(t_c),
                               "hq": 2.0 * np.log(np.log(t_c))}[criterion]
                    expected = []
                    for p in range(1, p_max + 1):
                        x = np.array([
                            [1.0, *(block[t - lag, j] for lag in range(1, p + 1)
                                    for j in range(m))]
                            for t in range(p_max, block.shape[0])
                        ])
                        y = block[p_max:]
                        coef = scipy.linalg.lstsq(x, y)[0]
                        resid = y - x @ coef
                        _, logdet = np.linalg.slogdet(resid.T @ resid / t_c)
                        expected.append(logdet + penalty * m * (1 + m * p) / t_c)
                    np.testing.assert_allclose(table[sign], expected, rtol=0, atol=1e-9)
                selected = tuple(int(np.argmin(table[s])) + 1
                                 for s in ("positive", "negative"))
                assert table["selected"] == selected


class TestSureSystem:
    def test_rejects_equations_with_different_row_counts(self, rng):
        # every regressand is a row of one (n, T) array, every design column
        # has its T rows
        system, _ = exog_two_equation_system(rng, t_obs=40)
        with pytest.raises(ValueError, match=r"targets have shape \(40,\), not \(n, T\)"):
            SureSystem(system.targets[0], system.design, system.layout)
        with pytest.raises(ValueError, match=r"design has shape \(39, 4\)"):
            SureSystem(system.targets, system.design[1:], system.layout)
        assert system.effective_sample == 40

    def test_rejects_shapes_and_runs_that_disagree(self, rng):
        system, _ = exog_two_equation_system(rng, t_obs=40)
        targets, design, layout = system.targets, system.design, system.layout
        with pytest.raises(ValueError, match=r"\(40, 4\), not \(T, k\) = \(39, 4\) "):
            SureSystem(targets[:, 1:], design, layout)
        with pytest.raises(ValueError, match=r"\(40, 4\), not \(T, k\) = \(40, 3\) "):
            SureSystem(targets, design, layout[:3])
        with pytest.raises(ValueError, match="split into more than one run"):
            SureSystem(targets, design, layout[::2] + layout[1::2])  # equations 1, 2, 1, 2
        with pytest.raises(ValueError, match=r"\(3, 40\), not \(n, T\) = \(2, 40\) "):
            SureSystem(np.vstack([targets, targets[:1]]), design, layout)

    def test_equations_are_the_layout_runs(self, rng):
        system = random_system(rng, [3, 1, 4])
        assert system.slices == (slice(0, 3), slice(3, 4), slice(4, 8))
        np.testing.assert_array_equal(system.equation_index, [0, 0, 0, 1, 2, 2, 2, 2])
        assert system.targets.flags.c_contiguous and system.design.flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        t_obs=st.integers(8, 60),
        lags=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)),
        built=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_products_equal_those_of_separate_equation_arrays(
            self, widths, t_obs, lags, built, seed):
        # the system stores one design and one regressand array; each product
        # must equal the same product on separate contiguous copies of each
        # equation's arrays, bit for bit (on column views of the design, X_i'y_j
        # and X_i'X_j round differently for equations 1 to 3 columns wide)
        rng = np.random.default_rng(seed)
        if built:
            comps = [SignedComponents(rng.standard_normal(t_obs + 20).cumsum(),
                                      rng.standard_normal(t_obs + 20).cumsum(), f"v{i}")
                     for i in range(2)]
            system = build_design(*comps, *lags)
        else:
            system = random_system(rng, widths, t_obs)
        slices = system.slices
        xs = [np.ascontiguousarray(system.design[:, sl]) for sl in slices]
        ys = [row.copy() for row in system.targets]
        coefficients = rng.standard_normal(system.n_coefficients)
        residuals = system.residuals(coefficients)
        for i, (a, sl) in enumerate(zip(xs, slices)):
            for j, b in enumerate(xs):
                np.testing.assert_array_equal(system.gram[sl, slices[j]], a.T @ b)
                np.testing.assert_array_equal(system.xty[sl, j], a.T @ ys[j])
            np.testing.assert_array_equal(residuals[:, i], ys[i] - a @ coefficients[sl])

    @settings(max_examples=60, deadline=None)
    @given(
        t_obs=st.integers(8, 60),
        lags=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)),
        n_rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_rows_equal_single_calls(self, t_obs, lags, n_rows, seed):
        # the GARCH-t likelihood evaluates a (P, k) stack of coefficient rows; each
        # row's residuals must be its own (k,) call's, bit for bit, in any stack
        rng = np.random.default_rng(seed)
        comps = [SignedComponents(rng.standard_normal(t_obs + 20).cumsum(),
                                  rng.standard_normal(t_obs + 20).cumsum(), f"v{i}")
                 for i in range(2)]
        system = build_design(*comps, *lags)
        stack = rng.standard_normal((n_rows, system.n_coefficients))
        residuals = system.residuals(stack)
        assert residuals.shape == (system.effective_sample, n_rows, system.n_equations)
        assert residuals.flags.c_contiguous
        for row, coefficients in enumerate(stack):
            np.testing.assert_array_equal(residuals[:, row], system.residuals(coefficients))


class TestOls:
    def test_noiseless_single_regressor(self):
        x = np.linspace(1.0, 5.0, 40)[:, None]
        system = SureSystem(
            targets=2.0 * x.T,
            design=x,
            layout=(LayoutEntry("beta+_1,1", 1, "+", 1, True),),
        )
        fit = ols_fit(system)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(fit.residuals[:, 0], 0.0, atol=1e-12)

    def test_matches_fgls_with_identical_regressors(self, rng):
        system = identical_regressor_system(rng)
        ols = ols_fit(system)
        fgls = fgls_fit(system)
        np.testing.assert_allclose(
            ols.coefficients, fgls.coefficients, rtol=0, atol=1e-8
        )

    def test_recovers_truth_within_three_standard_errors(self):
        # stationary VAR(1) blocks with known coefficients, stacked like the
        # signed-component system
        rng = np.random.default_rng(77)
        t_obs = 10_000
        a_pos = np.array([[0.5, 0.2], [0.1, 0.4]])
        a_neg = np.array([[0.3, 0.0], [0.25, 0.5]])
        pos = np.zeros((t_obs, 2))
        neg = np.zeros((t_obs, 2))
        for t in range(1, t_obs):
            pos[t] = 0.5 + a_pos @ pos[t - 1] + rng.standard_normal(2)
            neg[t] = -0.2 + a_neg @ neg[t - 1] + rng.standard_normal(2)
        comps = [
            SignedComponents(positive=pos[:, i], negative=neg[:, i], name=f"v{i + 1}")
            for i in range(2)
        ]
        system = build_design(*comps, 1, 1, extra_lags=0)
        fit = ols_fit(system)
        truth = np.concatenate(
            [
                [0.5, a_pos[0, 0], a_pos[0, 1]],
                [0.5, a_pos[1, 0], a_pos[1, 1]],
                [-0.2, a_neg[0, 0], a_neg[0, 1]],
                [-0.2, a_neg[1, 0], a_neg[1, 1]],
            ]
        )
        std_errors = np.sqrt(np.diag(fit.covariance))
        assert np.all(np.abs(fit.coefficients - truth) <= 3.0 * std_errors)

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_covariance_is_the_cross_equation_sandwich(self, widths, seed):
        # block (i, j) is omega_ij (X_i'X_i)^-1 X_i'X_j (X_j'X_j)^-1, so the
        # diagonal blocks are omega_ii (X_i'X_i)^-1 and the cross blocks carry
        # the correlation of the equations' errors
        system = random_system(np.random.default_rng(seed), widths)
        fit = ols_fit(system)
        xs = [system.design[:, sl] for sl in system.slices]
        inverses = [np.linalg.inv(x.T @ x) for x in xs]
        for (i, si), (j, sj) in itertools.product(enumerate(system.slices), repeat=2):
            expected = fit.omega[i, j] * inverses[i] @ xs[i].T @ xs[j] @ inverses[j]
            scale = np.sqrt(np.outer(np.diag(fit.covariance)[si], np.diag(fit.covariance)[sj]))
            np.testing.assert_allclose(fit.covariance[si, sj], expected, rtol=1e-9,
                                       atol=1e-9 * np.max(scale))

    def test_covariance_is_block_diagonal_when_omega_is(self):
        # intercepts on orthogonal centred regressands: the residual covariance
        # is exactly diagonal, and the covariance is omega_ii / T per equation
        signs = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        data = 3.0 + np.tile(signs, (10, 1)) * [0.5, 2.0]
        fit = ols_fit(intercept_system(data))
        assert fit.omega[0, 1] == 0.0 and fit.covariance[0, 1] == 0.0
        np.testing.assert_allclose(np.diag(fit.covariance), np.diag(fit.omega) / 40,
                                   rtol=1e-14)

    def test_rank_deficiency_names_equation(self):
        up = increasing_components()
        other = components_from_walks(seed=12, t_obs=120)[0]
        with pytest.raises(SingularityError, match=r"^equation Z-1 \(up\): "):
            ols_fit(build_design(up, other, 1, 1, extra_lags=1))

    def test_rank_deficiency_names_the_dependent_regressor(self):
        # in either position the error names the lag of the series with the
        # constant component, not the first series
        up = increasing_components()
        other = components_from_walks(seed=12, t_obs=120)[0]
        for pair, column in (((up, other), "beta-_1,1"), ((other, up), "beta-_2,1")):
            message = f"rank-deficient at {column}, a lag of 'up'$"
            with pytest.raises(SingularityError, match=message):
                ols_fit(build_design(*pair, 1, 1, extra_lags=1))


class TestFgls:
    def test_identity_omega_reproduces_ols(self, rng):
        system, _ = exog_two_equation_system(rng)
        ols = ols_fit(system)
        coef, _ = gls_solve(system, np.eye(2))
        np.testing.assert_allclose(coef, ols.coefficients, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        variances=st.lists(st.floats(0.05, 20.0), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_diagonal_omega_reproduces_ols(self, widths, variances, seed):
        # no cross-equation information flows when the weight matrix is
        # diagonal, whatever the variances and equation widths are
        system = random_system(np.random.default_rng(seed), widths)
        ols = ols_fit(system)
        coef, _ = gls_solve(system, np.diag(variances[: len(widths)]))
        np.testing.assert_allclose(coef, ols.coefficients, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 4),
        width=st.integers(1, 5),
        diagonal=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
        lower=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_design_any_omega_reproduces_ols(self, n, width, diagonal, lower, seed):
        # Kruskal: when every equation has the same design, GLS is OLS for any
        # positive-definite omega = LL'.  The error tracks cond(omega); measured
        # at <= 2.8 cond(omega) eps of the largest coefficient over 40,000
        # random and extreme-entry L, so the bound is 10 cond(omega) eps.
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, width - 1))])
        layout = tuple(
            LayoutEntry(f"c{i},{j}", i + 1, "+", None if j == 0 else 1, j > 0)
            for i in range(n)
            for j in range(width)
        )
        ys = tuple(x @ rng.standard_normal(width) + rng.standard_normal(40)
                   for _ in range(n))
        system = SureSystem(np.stack(ys), np.hstack((x,) * n), layout)
        factor = np.diag(diagonal[:n])
        factor[np.tril_indices(n, -1)] = lower[: n * (n - 1) // 2]
        omega = factor @ factor.T
        ols = ols_fit(system).coefficients
        coef, _ = gls_solve(system, omega)
        scale = max(1.0, np.max(np.abs(ols)))
        bound = 10.0 * np.linalg.cond(omega) * np.finfo(float).eps * scale
        assert np.max(np.abs(coef - ols)) <= bound

    def test_gls_matches_dense_kronecker_oracle(self):
        # unequal equation widths (7 and 5) against the textbook formula
        # [Z'(omega^-1 (x) I)Z]^-1 Z'(omega^-1 (x) I)y on an explicit
        # block-diagonal Z; white-noise components keep the design well
        # conditioned, so the tolerance measures the assembly, not rounding
        rng = np.random.default_rng(15)
        comps = [
            SignedComponents(
                rng.standard_normal(200), rng.standard_normal(200), name=f"v{i + 1}"
            )
            for i in range(2)
        ]
        system = build_design(*comps, 2, 1, extra_lags=1)
        assert [sl.stop - sl.start for sl in system.slices] == [7, 7, 5, 5]
        n, t_eff = system.n_equations, system.effective_sample
        scale = rng.standard_normal((n, n))
        omega = scale @ scale.T + n * np.eye(n)
        z = np.zeros((n * t_eff, system.n_coefficients))
        for i, sl in enumerate(system.slices):
            z[i * t_eff : (i + 1) * t_eff, sl] = system.design[:, sl]
        y = system.targets.ravel()
        weight = np.kron(np.linalg.inv(omega), np.eye(t_eff))
        cov_dense = np.linalg.inv(z.T @ weight @ z)
        coef_dense = cov_dense @ (z.T @ weight @ y)
        coef, gls_matrix = gls_solve(system, omega)
        np.testing.assert_allclose(coef, coef_dense, rtol=1e-10)
        np.testing.assert_allclose(np.linalg.inv(gls_matrix), cov_dense, rtol=1e-10)
        # the broadcast assembly keeps the arithmetic of the per-block loop
        inv = np.linalg.inv(np.linalg.cholesky(omega))
        inv = inv.T @ inv
        slices, ys = system.slices, system.targets
        xs = [system.design[:, sl] for sl in slices]
        a = np.zeros((system.n_coefficients,) * 2)
        b = np.zeros(system.n_coefficients)
        for i in range(n):
            for j in range(n):
                a[slices[i], slices[j]] = inv[i, j] * (xs[i].T @ xs[j])
            b[slices[i]] = sum(inv[i, j] * (xs[i].T @ ys[j]) for j in range(n))
        np.testing.assert_array_equal(coef, np.linalg.solve(a, b))

    def test_kruskal_identical_regressors(self, rng):
        system = identical_regressor_system(rng)
        fgls = fgls_fit(system)
        ols = ols_fit(system)
        np.testing.assert_allclose(
            fgls.coefficients, ols.coefficients, rtol=0, atol=1e-8
        )

    def test_efficiency_gain_under_cross_correlation(self):
        se_ols = se_fgls = 0.0
        for rep in range(200):
            rng = np.random.default_rng((81, rep))
            system, truth = exog_two_equation_system(rng, t_obs=100, rho=0.8)
            se_ols += np.sum((ols_fit(system).coefficients - truth) ** 2)
            se_fgls += np.sum((fgls_fit(system).coefficients - truth) ** 2)
        assert se_fgls / se_ols < 0.95

    def test_estimate_shapes_and_properties(self):
        comps = components_from_walks(seed=13)
        system = build_design(*comps, 1, 1, extra_lags=1)
        fit = fgls_fit(system)
        assert fit.estimator == "fgls"
        assert fit.converged
        assert fit.coefficients.size == system.n_coefficients
        np.testing.assert_allclose(fit.omega, fit.omega.T, atol=1e-14)
        scale = np.sqrt(np.diag(fit.omega))
        corr = fit.omega / np.outer(scale, scale)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(fit.covariance)) >= -1e-10
        ols = ols_fit(system)
        assert np.min(np.linalg.eigvalsh(ols.covariance)) >= -1e-10

    def test_equation_reordering_permutes_coefficients(self, rng):
        system, _ = exog_two_equation_system(rng)
        swapped = SureSystem(
            targets=system.targets[::-1],
            design=np.hstack([system.design[:, 2:], system.design[:, :2]]),
            layout=system.layout[2:] + system.layout[:2],
        )
        original = fgls_fit(system).coefficients
        permuted = fgls_fit(swapped).coefficients
        np.testing.assert_allclose(
            permuted, np.concatenate([original[2:], original[:2]]), atol=1e-9
        )

    def test_degenerate_component_raises(self):
        flat = var_components(np.full(100, 2.5), "flat")
        other = var_components(
            np.random.default_rng(5).standard_normal(100).cumsum(), "walk"
        )
        with pytest.raises((SingularityError, NotPositiveDefiniteError)):
            fgls_fit(build_design(flat, other, 1, 1, extra_lags=0))
