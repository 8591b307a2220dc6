"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
runtime budget and prints a one-line verdict (run with ``-s`` to see the
lines as they pass; ``-v`` gives one line per criterion either way).
"""

import itertools
import time

import numpy as np

from gridfair import (
    BrowsingModelSpec,
    DistanceSpec,
    Ranking,
    RerankSpec,
    attention,
    awrf,
    continuations,
    eel,
    group_exposure,
    rewrap,
    simulate_row_skip,
    system_exposure,
    target_exposure,
    truncate,
    wrap,
)
from gridfair.cli import main
from gridfair.io import read_results
from gridfair.layout import WRAPPED_GRID, RenderPlan

from util import make_judgments, make_ranking, make_table, permutation_expectation, rerank_ranking

L1 = DistanceSpec("l1")


def verdict(number, name):
    print(f"criterion {number:02d} {name}: PASS")


def random_layout(rng, max_len=50, max_cols=10):
    n = int(rng.integers(1, max_len + 1))
    c = int(rng.integers(1, max_cols + 1))
    return wrap(make_ranking(n), c)


def test_c01_model_reductions():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        grid = random_layout(rng)
        n = grid.n_displayed
        alpha = float(rng.uniform(0.1, 0.9))
        rel = make_judgments(
            "q1", {d: float(g) for d, g in zip(grid.items, rng.integers(0, 3, size=n))}
        )
        for base, judged in (("geometric", None), ("cascade", rel)):
            plain = BrowsingModelSpec(base=base, alpha=alpha)
            ref = attention(grid, judged, plain)
            slow = BrowsingModelSpec(base=base, alpha=alpha, adjustment="slow-decay", beta=1.0)
            np.testing.assert_allclose(
                attention(grid, judged, slow), ref, rtol=0, atol=1e-12
            )
            skip = BrowsingModelSpec(base=base, alpha=alpha, adjustment="row-skip", gamma=0.0)
            np.testing.assert_allclose(
                attention(grid, judged, skip), ref, rtol=0, atol=1e-12
            )
        cascade_zero = BrowsingModelSpec(base="cascade", alpha=alpha)
        geo = BrowsingModelSpec(base="geometric", alpha=alpha)
        np.testing.assert_allclose(
            attention(grid, None, cascade_zero),
            attention(grid, None, geo),
            rtol=0,
            atol=1e-12,
        )
        # single-column wrap equals the plain linear definitions
        column = wrap(grid.origin, 1)
        np.testing.assert_allclose(
            attention(column, None, geo),
            np.power(alpha, np.arange(n, dtype=np.float64)),
            rtol=0,
            atol=1e-12,
        )
        grades = rel.grades("q1", column.items)
        cap = max(grades.max(), 1.0)
        expected = np.empty(n)
        running = 1.0
        for i in range(n):
            expected[i] = running
            running *= alpha * (1.0 - 0.5 * min(grades[i] / cap, 1.0))
        np.testing.assert_allclose(
            attention(column, rel, BrowsingModelSpec(base="cascade", alpha=alpha)),
            expected,
            rtol=0,
            atol=1e-12,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"model-reduction suite took {elapsed:.1f}s"
    verdict(1, "model reductions collapse to the base definitions")


def test_c02_bounds_and_row_monotonicity():
    rng = np.random.default_rng(102)
    alphas = np.round(np.arange(0.1, 0.95, 0.1), 10)
    gammas = np.round(np.arange(0.1, 0.95, 0.1), 10)
    betas = np.round(np.arange(1.1, 2.05, 0.1), 10)
    grids = [random_layout(rng, max_len=60) for _ in range(4)]
    judged = [
        make_judgments(
            "q1",
            {d: float(g) for d, g in zip(g_.items, rng.integers(0, 4, size=g_.n_displayed))},
        )
        for g_ in grids
    ]
    start = time.perf_counter()

    def check(grid, weights):
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        offset = 0
        for ln in grid.row_lengths:
            assert np.all(np.diff(weights[offset : offset + ln]) <= 1e-15)
            offset += ln

    for base in ("geometric", "cascade"):
        for grid, rel in zip(grids, judged):
            rel = rel if base == "cascade" else None
            for alpha in alphas:
                check(grid, attention(grid, rel, BrowsingModelSpec(base=base, alpha=alpha)))
                for gamma in gammas:
                    spec = BrowsingModelSpec(
                        base=base, adjustment="row-skip", alpha=alpha, gamma=gamma
                    )
                    check(grid, attention(grid, rel, spec))
                for beta in betas:
                    spec = BrowsingModelSpec(
                        base=base, adjustment="slow-decay", alpha=alpha, beta=beta
                    )
                    check(grid, attention(grid, rel, spec))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"bounds suite took {elapsed:.1f}s"
    verdict(2, "weights stay in [0,1] and fall along rows over the whole parameter grid")


def test_c03_simulation_oracle():
    grid = wrap(make_ranking(9), 3)
    start = time.perf_counter()
    for i, alpha in enumerate((0.3, 0.5, 0.7)):
        for j, gamma in enumerate((0.3, 0.5, 0.7)):
            spec = BrowsingModelSpec(adjustment="row-skip", alpha=alpha, gamma=gamma)
            exact = attention(grid, None, spec)
            cont = continuations(np.zeros(grid.n_displayed), spec)
            est, se = simulate_row_skip(
                cont, grid.row_lengths, spec, 1_000_000, seed=900 + 10 * i + j
            )
            assert np.all(np.abs(est - exact) <= 3.0 * se + 1e-12), (alpha, gamma)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"simulation oracle took {elapsed:.1f}s"
    verdict(3, "sampled browsing sessions reproduce row-skip weights within 3 SE")


def test_c04_target_exposure_oracle():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    specs = [
        BrowsingModelSpec(),
        BrowsingModelSpec(adjustment="row-skip", gamma=0.6),
        BrowsingModelSpec(adjustment="slow-decay", beta=1.9),
    ]
    for _ in range(12):
        n = int(rng.integers(2, 7))
        docs = [f"d{i}" for i in range(n)]
        grades = {d: float(g) for d, g in zip(docs, rng.integers(0, 3, size=n))}
        table = make_table({d: ("a" if i % 2 else "b") for i, d in enumerate(docs)})
        rel = make_judgments("q1", grades)
        plan = RenderPlan(WRAPPED_GRID, int(rng.integers(1, 5)))
        for spec in specs:
            tau = target_exposure("q1", docs, rel, plan, spec, table)
            oracle = permutation_expectation(docs, grades, plan, spec, table)
            np.testing.assert_allclose(tau, oracle, rtol=0, atol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"target-exposure oracle took {elapsed:.1f}s"
    verdict(4, "tier-shared targets equal exhaustive permutation expectations")


def test_c05_metric_zeros():
    # parity: a one-column pair with guaranteed-reach rows exposes both
    # groups identically, matching the catalog estimator exactly
    table = make_table({"d0": "a", "d1": "b"})
    grid = wrap(Ranking("q1", 0, ("d0", "d1")), 1)
    spec = BrowsingModelSpec(adjustment="row-skip", gamma=1.0)
    exposure = group_exposure(attention(grid, None, spec), table.matrix(grid.items))
    assert awrf(exposure, np.array([0.5, 0.5, 0.0]), L1, table.schema) == 0.0

    # a deterministic policy that is exactly the relevance order loses nothing
    docs = tuple(f"d{i}" for i in range(6))
    grades = {d: float(6 - i) for i, d in enumerate(docs)}
    rel = make_judgments("q1", grades)
    table = make_table({d: ("a" if i < 3 else "b") for i, d in enumerate(docs)})
    plan = RenderPlan(WRAPPED_GRID, 2)
    model = BrowsingModelSpec(base="cascade", adjustment="row-skip")
    policy = [Ranking("q1", 0, docs)]
    system = system_exposure(policy, plan, model, rel, table)
    ideal = target_exposure("q1", list(docs), rel, plan, model, table)
    assert eel(system, ideal) == 0.0
    verdict(5, "parity scores zero and the ideal policy loses zero exposure")


def test_c06_policy_exposure_brute_force():
    rng = np.random.default_rng(106)
    plan = RenderPlan(WRAPPED_GRID, 3)
    spec = BrowsingModelSpec(adjustment="slow-decay", beta=1.7)
    table = make_table({f"d{i}": ("a" if i % 3 else "b") for i in range(12)})
    rel = make_judgments("q1", {f"d{i}": float(i % 2) for i in range(12)})
    for n_samples in range(1, 6):
        rankings = [
            Ranking("q1", s, tuple(f"d{i}" for i in rng.permutation(12)[:9]))
            for s in range(n_samples)
        ]
        docs = sorted({d for r in rankings for d in r.items})
        ideal = target_exposure("q1", docs, rel, plan, spec, table)
        combined = eel(system_exposure(rankings, plan, spec, rel, table), ideal)
        expanded_exposure = np.zeros(table.schema.size)
        for ranking in rankings:
            grid = wrap(ranking, 3)
            expanded_exposure += (1.0 / n_samples) * group_exposure(
                attention(grid, rel, spec), table.matrix(grid.items)
            )
        expanded = eel(expanded_exposure, ideal)
        assert abs(combined - expanded) <= 1e-12
    verdict(6, "policy exposure equals its explicit per-sample expansion")


def test_c07_layout_algebra():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        c = int(rng.integers(1, 12))
        ranking = make_ranking(n)
        base = wrap(ranking, c)
        c_re = int(rng.integers(1, 12))
        assert rewrap(base, c_re).rows == wrap(ranking, c_re).rows
        c_tr = int(rng.integers(1, c + 1))
        cut = truncate(base, c_tr)
        assert cut.n_displayed == sum(min(len(row), c_tr) for row in base.rows)
    verdict(7, "re-wrapping matches direct wrapping and truncation keeps the right count")


def _block_ranking():
    """20 items, two groups in alternating blocks of five."""
    docs = tuple(f"d{i:02d}" for i in range(20))
    groups = {d: ("a" if (i // 5) % 2 == 0 else "b") for i, d in enumerate(docs)}
    return Ranking("q1", 0, docs), make_table(groups)


def _awrf_of(grid, table, spec, target):
    expo = group_exposure(attention(grid, None, spec), table.matrix(grid.items))
    return awrf(expo, target, L1, table.schema)


def test_c08_layout_sensitivity():
    ranking, table = _block_ranking()
    target = np.array([0.5, 0.5, 0.0])
    spec = BrowsingModelSpec(adjustment="row-skip")  # table defaults
    linear = _awrf_of(wrap(ranking, 1), table, spec, target)
    grid5 = _awrf_of(wrap(ranking, 5), table, spec, target)
    assert abs(linear - grid5) > 1e-3, (linear, grid5)
    verdict(8, "fairness scores depend on the layout (list vs 5-wide grid)")


def test_c09_reduction_divergence():
    ranking, table = _block_ranking()
    target = np.array([0.5, 0.5, 0.0])
    spec = BrowsingModelSpec(adjustment="row-skip")
    truncated, rewrapped = [], []
    for columns in (10, 8, 6, 5, 4, 3):
        base = wrap(ranking, 10)
        truncated.append(_awrf_of(truncate(base, columns), table, spec, target))
        rewrapped.append(_awrf_of(rewrap(base, columns), table, spec, target))
    assert truncated[0] == rewrapped[0]  # full width: both are the same grid
    assert truncated != rewrapped
    verdict(9, "truncation and re-wrapping disagree below the full width")


def test_c10_reranker_properties():
    rng = np.random.default_rng(110)
    improved = 0
    optimal_checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(2, 4))
        names = ["g0", "g1", "g2"][:k]
        assignment = {f"d{i}": names[int(rng.integers(0, k))] for i in range(n)}
        table = make_table(assignment, groups=names)
        target = np.zeros(table.schema.size)
        target[:k] = 1.0 / k
        ranking = Ranking(
            "q1", 0, tuple(assignment), scores=tuple(float(s) for s in rng.uniform(0, 1, n))
        )
        out = rerank_ranking(ranking, table, RerankSpec(target=target))
        before = _awrf_of(wrap(ranking, 1), table, BrowsingModelSpec(), target)
        after = _awrf_of(wrap(out, 1), table, BrowsingModelSpec(), target)
        if after <= before + 1e-12:
            improved += 1
        if n <= 7:
            # Every permutation shares the list's weights; each batched row
            # scores exactly as that permutation would alone.
            weights = attention(wrap(ranking, 1), None, BrowsingModelSpec())
            perms = np.array(list(itertools.permutations(range(n))))
            expo = group_exposure(
                np.broadcast_to(weights, perms.shape), table.matrix(ranking.items)[perms]
            )
            best = awrf(expo, target, L1, table.schema).min()
            if before <= best + 1e-12:
                # input already optimal: re-ranking must not lose the optimum
                assert after <= best + 1e-9
                optimal_checked += 1
    assert improved >= 950, f"only {improved}/1000 instances weakly improved"
    assert optimal_checked >= 20
    verdict(10, "greedy re-ranking never worsens fairness and preserves optima")


def test_c11_scale_and_determinism(tmp_path):
    rng = np.random.default_rng(111)
    n_requests, n_items = 100, 100
    run_paths = []
    for s in range(4):
        lines = []
        for q in range(n_requests):
            docs = rng.permutation(200)[:n_items]
            for rank, d in enumerate(docs):
                lines.append(f"q{q:03d} 0 d{d} {rank} {float(n_items - rank)} sys{s}")
        path = tmp_path / f"sys{s}.run"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_paths.append(path)
    align = tmp_path / "align.tsv"
    align.write_text(
        "\n".join(
            f"d{d}\t{'A' if d % 2 == 0 else 'B'}\t1.0" for d in range(180)
        )
        + "\n",
        encoding="utf-8",
    )
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(
        "\n".join(
            f"q{q:03d} 0 d{d} 1"
            for q in range(n_requests)
            for d in rng.permutation(200)[:20]
        )
        + "\n",
        encoding="utf-8",
    )

    def run(out, jobs):
        args = [
            "measure",
            *itertools.chain.from_iterable(("--run", str(p)) for p in run_paths),
            "--alignment", str(align),
            "--qrels", str(qrels),
            "--base-columns", "10",
            "--columns", "10,8,6,5,4,3",
            "--reduction", "truncate,rewrap",
            "--adjust", "row-skip",
            "--metrics", "awrf,eel",
            "--jobs", str(jobs),
            "--output", str(out),
        ]
        assert main(args) == 0

    start = time.perf_counter()
    run(tmp_path / "first.csv", jobs=1)
    elapsed = time.perf_counter() - start
    run(tmp_path / "second.csv", jobs=1)
    run(tmp_path / "jobs8.csv", jobs=8)
    first = (tmp_path / "first.csv").read_bytes()
    assert first == (tmp_path / "second.csv").read_bytes()
    assert first == (tmp_path / "jobs8.csv").read_bytes()
    rows = read_results(tmp_path / "first.csv")
    assert len(rows) == 4 * 12 * 2  # systems x reduced layouts x metrics
    assert elapsed < 60.0, f"measure took {elapsed:.1f}s"
    verdict(11, "full sweep is fast and byte-stable across reruns and worker counts")
