import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridfair import (
    BrowsingModelSpec,
    DistanceSpec,
    MetricError,
    Ranking,
    RelevanceJudgments,
    RenderPlan,
    RerankSpec,
    attention,
    awrf,
    greedy_rerank,
    group_exposure,
    system_exposure,
    wrap,
)
from gridfair.browse import ADJUSTMENTS, BASES, WITHIN_ROW_MODES
from gridfair.layout import VERTICAL

from util import make_table

L1 = DistanceSpec("l1")


def linear_awrf(ranking, table, target):
    grid = wrap(ranking, 1)
    weights = attention(grid, None, BrowsingModelSpec())
    return awrf(group_exposure(weights, table.matrix(grid.items)), target, L1, table.schema)


def exhaustive_min(ranking, table, target):
    best = np.inf
    for perm in itertools.permutations(ranking.items):
        best = min(best, linear_awrf(Ranking("q", 0, perm), table, target))
    return best


def random_instance(rng, n_max=9):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(2, 4))
    names = ["g0", "g1", "g2"][:k]
    docs = {f"d{i}": names[int(rng.integers(0, k))] for i in range(n)}
    table = make_table(docs, groups=names)
    scores = tuple(float(s) for s in rng.uniform(0, 1, size=n))
    ranking = Ranking("q1", 0, tuple(docs), scores=scores)
    target = np.zeros(table.schema.size)
    target[: len(names)] = 1.0 / len(names)
    return ranking, table, target


class TestGreedyRerank:
    def test_single_group_keeps_score_order(self):
        table = make_table({f"d{i}": "a" for i in range(5)})
        ranking = Ranking(
            "q1", 0, tuple(f"d{i}" for i in range(5)), scores=(5.0, 4.0, 3.0, 2.0, 1.0)
        )
        target = np.array([1.0, 0.0])
        out = greedy_rerank(ranking, table, RerankSpec(target=target))
        assert out.items == ranking.items
        assert out.scores == ranking.scores

    def test_two_group_instance_reaches_optimum(self):
        table = make_table({"A": "g0", "B": "g0", "C": "g1", "D": "g1"})
        ranking = Ranking("q1", 0, ("A", "B", "C", "D"), scores=(0.9, 0.8, 0.7, 0.6))
        target = np.array([0.5, 0.5, 0.0])
        out = greedy_rerank(ranking, table, RerankSpec(target=target))
        assert out.items == ("A", "C", "D", "B")
        got = linear_awrf(out, table, target)
        assert got == pytest.approx(0.2, abs=1e-12)
        assert got == pytest.approx(exhaustive_min(ranking, table, target), abs=1e-12)

    def test_output_is_permutation(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            ranking, table, target = random_instance(rng)
            out = greedy_rerank(ranking, table, RerankSpec(target=target))
            assert sorted(out.items) == sorted(ranking.items)
            by_doc = dict(zip(ranking.items, ranking.scores))
            assert all(by_doc[d] == s for d, s in zip(out.items, out.scores))

    def test_never_worse_than_input(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            ranking, table, target = random_instance(rng)
            out = greedy_rerank(ranking, table, RerankSpec(target=target))
            assert linear_awrf(out, table, target) <= linear_awrf(
                ranking, table, target
            ) + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        ranking, table, target = random_instance(rng)
        first = greedy_rerank(ranking, table, RerankSpec(target=target))
        second = greedy_rerank(ranking, table, RerankSpec(target=target))
        assert first == second

    def test_pool_of_one_degenerates_to_score_order(self):
        table = make_table({"A": "g0", "B": "g0", "C": "g0", "D": "g0"})
        ranking = Ranking("q1", 0, ("C", "A", "D", "B"), scores=(0.7, 0.9, 0.6, 0.8))
        target = np.array([1.0, 0.0])
        out = greedy_rerank(ranking, table, RerankSpec(target=target, pool=1))
        assert out.items == ("A", "B", "C", "D")

    def test_missing_scores_use_rank_order(self):
        table = make_table({"A": "g0", "B": "g0", "C": "g1", "D": "g1"})
        ranking = Ranking("q1", 0, ("A", "B", "C", "D"))
        out = greedy_rerank(
            ranking, table, RerankSpec(target=np.array([0.5, 0.5, 0.0]))
        )
        assert out.scores is None
        assert sorted(out.items) == ["A", "B", "C", "D"]

    def test_mixed_membership_uses_strongest_group(self):
        table = make_table(
            {"A": [0.6, 0.4, 0.0], "B": [0.4, 0.6, 0.0], "C": [0.5, 0.5, 0.0]},
            groups=["g0", "g1"],
        )
        ranking = Ranking("q1", 0, ("A", "B", "C"), scores=(3.0, 2.0, 1.0))
        out = greedy_rerank(
            ranking, table, RerankSpec(target=np.array([0.5, 0.5, 0.0]))
        )
        assert sorted(out.items) == ["A", "B", "C"]

    def test_greedy_weights_follow_the_adjustment(self):
        """Slow decay boosts later positions, so the second B item waits one
        place longer than under plain geometric decay."""
        table = make_table({f"d{i}": "B" if i < 2 else "A" for i in range(8)})
        ranking = Ranking(
            "q1", 0, tuple(f"d{i}" for i in range(8)), scores=tuple(range(8, 0, -1))
        )
        target = np.array([0.5, 0.5, 0.0])
        slow = BrowsingModelSpec(adjustment="slow-decay", beta=3.0)
        plain = greedy_rerank(ranking, table, RerankSpec(target=target))
        adjusted = greedy_rerank(ranking, table, RerankSpec(target=target, browsing=slow))
        assert plain.items[:4] == ("d2", "d0", "d1", "d3")
        assert adjusted.items == ("d2", "d0", "d3", "d1", "d4", "d5", "d6", "d7")

    def test_bad_target_rejected(self):
        table = make_table({"A": "g0"})
        ranking = Ranking("q1", 0, ("A",))
        with pytest.raises(MetricError):
            greedy_rerank(ranking, table, RerankSpec(target=np.array([0.7, 0.7])))

    def test_empty_ranking_rejected(self):
        table = make_table({"A": "g0"})
        with pytest.raises(MetricError):
            greedy_rerank(
                Ranking("q1", 0, ()), table, RerankSpec(target=np.array([1.0, 0.0]))
            )

    @pytest.mark.parametrize("pool", [0, -1])
    def test_pool_below_one_rejected(self, pool):
        with pytest.raises(MetricError, match="pool must be at least 1"):
            RerankSpec(target=np.array([1.0, 0.0]), pool=pool)

    def test_optimal_inputs_stay_optimal(self):
        """When the input order already attains the permutation minimum,
        re-ranking must not lose it."""
        rng = np.random.default_rng(34)
        checked = 0
        for _ in range(120):
            ranking, table, target = random_instance(rng, n_max=6)
            opt = exhaustive_min(ranking, table, target)
            if linear_awrf(ranking, table, target) > opt + 1e-12:
                continue
            out = greedy_rerank(ranking, table, RerankSpec(target=target))
            assert linear_awrf(out, table, target) <= opt + 1e-9
            checked += 1
        assert checked >= 10


def reference_awrf(ranking, table, target, browsing, rel):
    """AWRF of a ranking rendered as a vertical list, by the per-ranking
    reference path."""
    expo = system_exposure([ranking], RenderPlan(VERTICAL, 1), browsing, rel, table)
    return awrf(expo, target, L1, table.schema)


# Group names that sort before, after and around ``unknown`` in code-point order.
GROUP_NAMES = st.sampled_from([["g0", "g1", "g2"], ["v", "x", "z"], ["a", "w", "zz"]])


@st.composite
def rerank_cases(draw):
    """A list of 1-12 items over 1-3 groups, with mixed, tied and unknown
    memberships; present, tied or absent scores; optional judgments; any
    pool; and any browsing model."""
    n = draw(st.integers(1, 12))
    names = draw(GROUP_NAMES)[: draw(st.integers(1, 3))]
    size = len(names) + 1
    docs = [f"d{i}" for i in range(n)]
    memberships = {}
    for doc in docs:
        kind = draw(st.sampled_from(["group", "unknown", "unlabeled", "tied", "mixed"]))
        if kind == "group":
            memberships[doc] = draw(st.sampled_from(names))
        elif kind == "unknown":
            memberships[doc] = "unknown"
        elif kind == "tied":
            pair = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
            memberships[doc] = np.where(np.isin(np.arange(size), pair), 0.5, 0.0)
        elif kind == "mixed":
            raw = np.array(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)), float)
            memberships[doc] = raw / raw.sum() if raw.sum() else np.full(size, 1.0 / size)
    table = make_table(memberships, groups=names)
    scores = draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
            st.lists(st.floats(-5, 5), min_size=n, max_size=n),
        )
    )
    items = tuple(draw(st.permutations(docs)))
    ranking = Ranking("q1", 0, items, None if scores is None else tuple(scores))
    rel = None
    if draw(st.booleans()):
        grades = draw(st.dictionaries(st.sampled_from(docs), st.integers(0, 3)))
        rel = RelevanceJudgments({("q1", doc): float(g) for doc, g in grades.items()})
    raw = np.array(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)), float)
    target = raw / raw.sum() if raw.sum() else np.full(size, 1.0 / size)
    browsing = BrowsingModelSpec(
        base=draw(st.sampled_from(BASES)),
        adjustment=draw(st.sampled_from(ADJUSTMENTS)),
        alpha=draw(st.floats(0.01, 0.99)),
        gamma=draw(st.floats(0.0, 1.0)),
        beta=draw(st.floats(1.0, 5.0)),
        within_row=draw(st.sampled_from(WITHIN_ROW_MODES)),
    )
    pool = draw(st.one_of(st.none(), st.integers(1, n + 1)))
    return ranking, table, RerankSpec(target, browsing, pool), rel


# The greedy order beats this input under plain geometric decay but not
# under row-skip, so the guard must judge both under the list's own model.
ROW_SKIP_KEEPS_INPUT = (
    Ranking("q1", 0, ("d0", "d1", "d2")),
    make_table({"d0": "B", "d1": "B", "d2": "A"}),
    RerankSpec(np.array([0.3, 0.7, 0.0]), BrowsingModelSpec(adjustment="row-skip", gamma=0.9)),
    None,
)


@settings(max_examples=300, deadline=None)
@given(rerank_cases())
@example(ROW_SKIP_KEEPS_INPUT)
def test_never_worse_than_input_under_every_model(case):
    ranking, table, spec, rel = case
    out = greedy_rerank(ranking, table, spec, rel)
    assert sorted(out.items) == sorted(ranking.items)
    if ranking.scores is None:
        assert out.scores is None
    else:
        by_doc = dict(zip(ranking.items, ranking.scores))
        assert out.scores == tuple(by_doc[d] for d in out.items)
    before = reference_awrf(ranking, table, spec.target, spec.browsing, rel)
    after = reference_awrf(out, table, spec.target, spec.browsing, rel)
    assert after <= before + 1e-12
