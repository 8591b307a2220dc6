"""The sweep's results grid against rows built one at a time.

``harness._results`` lays a sweep's values out as one grid per system and
``write_results`` writes the grids straight from the arrays. Both must give
the bytes, rows and errors of building every ``ResultsRow`` and writing the
sorted rows one ``csv`` row each (``tests/util.py``).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridfair import BrowsingModelSpec, MetricError, RenderPlan, ResultsRow, SweepConfig
from gridfair import harness
from gridfair.io import write_results
from gridfair.layout import HORIZONTAL, VERTICAL, WRAPPED_GRID

from util import row_key, sweep_rows, write_rows

# Names that need CSV quoting, and names that sort before and after "ALL".
NAMES = ["0q", "B", "a", "AM", "A", "q,1", 'q"2', "x y", "sys,\"A\""]
PLANS = [
    RenderPlan(VERTICAL, 1),
    RenderPlan(HORIZONTAL, 0),
    RenderPlan(WRAPPED_GRID, 3),
    RenderPlan(WRAPPED_GRID, 2, "truncate", 3),
    RenderPlan(WRAPPED_GRID, 2, "rewrap", 3),
]
SPECS = [
    BrowsingModelSpec(),
    BrowsingModelSpec(base="cascade"),
    BrowsingModelSpec(adjustment="row-skip", gamma=0.25),
    BrowsingModelSpec(adjustment="slow-decay", alpha=0.8, beta=1.5),
]
# Every magnitude, negatives and -0.0.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1 / 3, -2.5e-300, 1e300]),
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def sweeps(draw):
    plans = draw(st.lists(st.sampled_from(PLANS), min_size=1, max_size=3, unique=True))
    specs = draw(st.lists(st.sampled_from(SPECS), min_size=1, max_size=3, unique=True))
    metrics = draw(st.sampled_from([["awrf"], ["eel"], ["awrf", "eel"], ["eel", "awrf"]]))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    # One sweep in ten may hold values that are not finite.
    elements = FINITE if draw(st.integers(0, 9)) else st.one_of(FINITE, NON_FINITE)
    systems, values = [], []
    for system in names:
        # Each system its own requests, in the order a run lists them.
        requests = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
        shape = (len(plans), len(specs), len(requests))
        systems.append((system, tuple(requests)))
        values.append(
            {metric: draw(arrays(np.float64, shape, elements=elements)) for metric in metrics}
        )
    return systems, values, plans, specs, metrics, draw(st.booleans())


def _written(write, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write(rows, path)
        return path.read_bytes()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sweeps())
def test_grid_writes_the_bytes_of_rows_built_one_at_a_time(case):
    # Means of huge or non-finite values overflow or are invalid.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            rows = sweep_rows(*case)
        except MetricError as exc:
            with pytest.raises(MetricError) as raised:
                harness._results(*case)
            assert str(raised.value) == str(exc)
            return
        grid = harness._results(*case)
    want = _written(write_rows, rows)
    assert _written(write_results, grid) == want
    ordered = sorted(rows, key=row_key)
    assert len(grid) == len(ordered)
    assert list(grid) == ordered


def test_the_first_non_finite_value_in_sweep_order_is_named():
    """Systems are checked in the order given, each mean before any of its
    requests' values: the first non-finite value the rows would have met."""
    plans, specs = PLANS[:2], SPECS[:1]
    systems = [("sysB", ("q2", "q1")), ("sysA", ("q1",))]
    nan, inf = float("nan"), float("inf")
    values = [
        {"awrf": np.array([[[1.0, 2.0]], [[-inf, 1.0]]])},
        {"awrf": np.array([[[nan]], [[1.0]]])},
    ]
    for per_request in (False, True):
        case = (systems, values, plans, specs, ["awrf"], per_request)
        with pytest.raises(MetricError) as want:
            sweep_rows(*case)
        with pytest.raises(MetricError, match="^non-finite metric value: -inf$") as got:
            harness._results(*case)
        assert str(got.value) == str(want.value)


def _sweep_config(tmp: Path, per_request: bool) -> SweepConfig:
    alignment = tmp / "alignment.tsv"
    alignment.write_text("".join(f"d{i}\t{'ABC'[i % 3]}\t1\n" for i in range(12)))
    runs = []
    for system, depth in (("sysB", 7), ("sysA", 5)):
        run = tmp / f"{system}.run"
        run.write_text(
            "".join(
                f"{q} {s} d{(i + 5 * s + len(q)) % 12} {i} {depth - i} {system}\n"
                for q in ("q2", "0q", "q,1")[: depth - 4]
                for s in range(2)
                for i in range(depth)
            )
        )
        runs.append(str(run))
    qrels = tmp / "qrels.txt"
    qrels.write_text("".join(f"q2 0 d{i} {i % 3}\n" for i in range(12)))
    return SweepConfig(
        runs=runs,
        alignment=str(alignment),
        qrels=str(qrels),
        geometries=[RenderPlan(VERTICAL, 1), RenderPlan(WRAPPED_GRID, 3)],
        reductions=["truncate"],
        columns=[2],
        base_columns=3,
        adjustments=["none", "row-skip"],
        metrics=["eel", "awrf"],
        per_request=per_request,
        output=str(tmp / "results.csv"),
    )


@pytest.mark.parametrize("per_request", [False, True])
def test_measure_returns_the_rows_it_wrote(monkeypatch, tmp_path, per_request):
    """``len`` of what ``measure`` returns counts the CSV's data lines and
    builds no row; reading it gives the rows built one at a time."""
    config = _sweep_config(tmp_path, per_request)
    seen = []
    results = harness._results

    def recorded(*args):
        seen.append(args)
        return results(*args)

    built = []
    post_init = ResultsRow.__post_init__
    monkeypatch.setattr(harness, "_results", recorded)
    monkeypatch.setattr(ResultsRow, "__post_init__", lambda row: built.append(post_init(row)))
    rows = harness.measure(config)
    lines = Path(config.output).read_text(encoding="utf-8").splitlines()
    assert len(rows) == len(lines) - 1
    assert built == []
    assert list(rows) == sorted(sweep_rows(*seen[0]), key=row_key)
    assert _written(write_rows, list(rows)) == Path(config.output).read_bytes()
