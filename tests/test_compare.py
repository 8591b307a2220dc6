"""Ordering consistency: Kendall tau-b between configurations' system orderings."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfair.harness import compare_orderings
from gridfair.io import ResultsRow


def aggregate(system, columns, value, metric="awrf"):
    return ResultsRow(
        system, "ALL", "wrapped-grid", columns, "none", "geometric", "none",
        0.5, 0.5, 1.9, metric, value,
    )


def textbook_tau_b(a, b):
    """Kendall (1945): (P - Q) over the square roots of the pairs untied in
    each vector, counted pair by pair with Python ints; nan when either
    vector ties every pair."""
    concordant = discordant = tied_a_only = tied_b_only = 0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            da = (a[j] > a[i]) - (a[j] < a[i])
            db = (b[j] > b[i]) - (b[j] < b[i])
            if da * db > 0:
                concordant += 1
            elif da * db < 0:
                discordant += 1
            elif da == 0 and db != 0:
                tied_a_only += 1
            elif db == 0 and da != 0:
                tied_b_only += 1
    untied_a = concordant + discordant + tied_b_only
    untied_b = concordant + discordant + tied_a_only
    if not untied_a or not untied_b:
        return math.nan
    tau = (concordant - discordant) / math.sqrt(untied_a) / math.sqrt(untied_b)
    return min(1.0, max(-1.0, tau))


# Few distinct values, so ties within a configuration are common.
scores = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])


@settings(max_examples=400, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(scores, min_size=n, max_size=n), st.lists(scores, min_size=n, max_size=n)
)))
def test_tau_matches_textbook_tau_b_bit_for_bit(pair):
    a, b = pair
    systems = [f"s{i}" for i in range(len(a))]
    rows = [aggregate(s, 1, v) for s, v in zip(systems, a)]
    rows += [aggregate(s, 2, v) for s, v in zip(systems, b)]
    (report,) = compare_orderings(rows)
    expected = textbook_tau_b(a, b)
    assert report["n_systems"] == len(a)
    if math.isnan(expected):
        assert math.isnan(report["tau"])
    else:
        assert report["tau"] == expected


def test_pairs_cover_the_shared_systems_only():
    rows = [aggregate(s, 1, v) for s, v in {"s1": 0.9, "s2": 0.1, "s3": 0.2, "s4": 0.3}.items()]
    rows += [aggregate(s, 2, v) for s, v in {"s2": 0.3, "s3": 0.2, "s4": 0.1, "s5": 0.0}.items()]
    (report,) = compare_orderings(rows)
    assert report["n_systems"] == 3
    assert report["tau"] == -1.0
    assert set(report["deltas"]) == {"s2", "s3", "s4"}
    assert report["max_abs_delta"] == pytest.approx(0.2)


def test_only_configurations_of_one_metric_are_paired():
    rows = [aggregate(s, c, v, m) for m in ("awrf", "eel") for c in (1, 2)
            for s, v in (("s1", 0.1), ("s2", 0.2))]
    reports = compare_orderings(rows)
    assert [r["metric"] for r in reports] == ["awrf", "eel"]

