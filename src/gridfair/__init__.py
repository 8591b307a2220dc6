"""Provider-side group fairness of rankings in linear and grid layouts.

Measures how the exposure a ranked list gives to provider groups changes
with the layout it is rendered into (vertical or horizontal lists, wrapped
grids), with the browsing model assumed for users (geometric or cascade,
optionally with row-skipping or slower-decay grid behavior), and with
column reductions (truncation vs re-wrapping).
"""

from .browse import BrowsingModelSpec, attention, continuations
from .core import (
    AlignmentTable,
    GroupSchema,
    Ranking,
    RelevanceJudgments,
    UNKNOWN_GROUP,
)
from .errors import (
    ConfigError,
    GridfairError,
    LayoutError,
    MetricError,
    ParseError,
    ShapeError,
)
from .harness import SweepConfig, compare_orderings, measure
from .io import ResultsRow, RunFile, parse_alignment, parse_qrels, parse_run, write_results
from .layout import GridLayout, RenderPlan, render, rewrap, truncate, wrap
from .mc import simulate_row_skip
from .metrics import (
    DistanceSpec,
    PopulationEstimator,
    awrf,
    awrf_system,
    eel,
    group_exposure,
    population_estimator,
    system_exposure,
    target_exposure,
)
from .rerank import RerankSpec, greedy_rerank

__version__ = "0.1.0"

__all__ = [
    "AlignmentTable",
    "BrowsingModelSpec",
    "ConfigError",
    "DistanceSpec",
    "GridLayout",
    "GridfairError",
    "GroupSchema",
    "LayoutError",
    "MetricError",
    "ParseError",
    "PopulationEstimator",
    "Ranking",
    "RelevanceJudgments",
    "RenderPlan",
    "RerankSpec",
    "ResultsRow",
    "RunFile",
    "ShapeError",
    "SweepConfig",
    "UNKNOWN_GROUP",
    "attention",
    "awrf",
    "awrf_system",
    "compare_orderings",
    "continuations",
    "eel",
    "greedy_rerank",
    "group_exposure",
    "measure",
    "parse_alignment",
    "parse_qrels",
    "parse_run",
    "population_estimator",
    "render",
    "rewrap",
    "simulate_row_skip",
    "system_exposure",
    "target_exposure",
    "truncate",
    "wrap",
    "write_results",
]
