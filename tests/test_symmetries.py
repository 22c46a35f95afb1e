"""Metamorphic properties: exact symmetries of the model, checked end to end.

Swapping the two inputs exchanges the roles of the two variables, so H1-H4
become H5-H8 and back while H9 and H10 stay.  Negating both series exchanges
the signed paths, decompose(-y).positive = -decompose(y).negative, so the
sign blocks trade places: (P+, P-) swap, H1 <-> H2 and H5 <-> H6, and every
other statistic stays.  Both maps hold in exact arithmetic; the statistics of
the two fits agree to rounding, and the lag selections map exactly.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcause import build_design, catalog, decompose, fgls_fit, run_catalog
from asymcause.decomposition import DETERMINISTIC_KINDS
from asymcause.montecarlo import DgpConfig, simulate_dgp
from asymcause.sure import lag_order_table

SWAP = {"H1": "H5", "H2": "H6", "H3": "H7", "H4": "H8",
        "H5": "H1", "H6": "H2", "H7": "H3", "H8": "H4", "H9": "H9", "H10": "H10"}
NEGATE = {"H1": "H2", "H2": "H1", "H5": "H6", "H6": "H5",
          **{hid: hid for hid in ("H3", "H4", "H7", "H8", "H9", "H10")}}

pairs = st.builds(
    DgpConfig,
    drift=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    error_correlation=st.floats(-0.8, 0.8),
    t_obs=st.integers(80, 400),
    seed=st.integers(0, 2**32 - 1),
)
lags = st.integers(1, 3)
kinds = st.sampled_from(DETERMINISTIC_KINDS)


def statistics(first, second, p_pos, p_neg, sums):
    system = build_design(first, second, p_pos, p_neg)
    results = run_catalog(fgls_fit(system), catalog(system, sums))
    return {r.hypothesis.id: r.statistic for r in results}


def assert_mapped(stats, mapped_stats, mapping):
    # relative to |stat| alone the bound fails on statistics near zero
    for hid, image in mapping.items():
        stat, mapped = stats[hid], mapped_stats[image]
        assert abs(stat - mapped) <= 1e-7 * max(abs(stat), 1.0), (hid, stat, mapped)


@settings(max_examples=60, deadline=None)
@given(config=pairs, kind=kinds, p_pos=lags, p_neg=lags, sums=st.booleans())
def test_swapping_the_inputs_exchanges_the_directions(config, kind, p_pos, p_neg, sums):
    first, second = (decompose(s, kind) for s in simulate_dgp(config))
    assert_mapped(statistics(first, second, p_pos, p_neg, sums),
                  statistics(second, first, p_pos, p_neg, sums), SWAP)
    selected = lag_order_table(first, second, 8, "sbc")["selected"]
    assert lag_order_table(second, first, 8, "sbc")["selected"] == selected


@settings(max_examples=60, deadline=None)
@given(config=pairs, kind=kinds, p_pos=lags, p_neg=lags, sums=st.booleans())
def test_negating_both_series_exchanges_the_signs(config, kind, p_pos, p_neg, sums):
    series = simulate_dgp(config)
    first, second = (decompose(s, kind) for s in series)
    neg_first, neg_second = (decompose(replace(s, values=-s.values), kind)
                             for s in series)
    assert_mapped(statistics(first, second, p_pos, p_neg, sums),
                  statistics(neg_first, neg_second, p_neg, p_pos, sums), NEGATE)
    p_pos_sel, p_neg_sel = lag_order_table(first, second, 8, "sbc")["selected"]
    negated = lag_order_table(neg_first, neg_second, 8, "sbc")["selected"]
    assert negated == (p_neg_sel, p_pos_sel)
