"""Experiment orchestration: layout/model sweeps over parsed runs.

A sweep evaluates every combination of system, layout plan, browsing
model, and metric, producing one aggregate row per combination (and
optionally per-request rows). Requests are evaluated one after another
from arrays built once per request (the union of its sampled documents,
their grades and membership rows) and once per sweep (layout shapes and
grade-free attention weights); results are buffered and sorted before
writing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .browse import (
    ROW_SKIP,
    SLOW_DECAY,
    BrowsingModelSpec,
    attention,  # unused here; perfbench/tracer.py wraps this name
    continuations,
    position_weights,
    shape_only,
)
from .core import AlignmentTable, Ranking, RelevanceJudgments
from .errors import ConfigError, MetricError
from .io import (
    RESULT_FIELDS,
    ResultsRow,
    RunFile,
    parse_alignment,
    parse_fixed_target,
    parse_qrels,
    parse_run,
    write_results,
)
from .layout import WRAPPED_GRID, RenderPlan
from .layout import rewrap, truncate, wrap  # unused here; perfbench/tracer.py wraps these names
from .metrics import (
    ESTIMATOR_MODES,
    DistanceSpec,
    PopulationEstimator,
    awrf,
    awrf_system,
    drop_unknown,
    eel,
    grade_tiers,
    group_exposure,
    population_estimator,
    target_exposure,  # unused by the sweep; perfbench/tracer.py wraps this name
    tier_means,
)

METRICS = ("awrf", "eel")
DEFAULT_COLUMN_SIZES = (10, 8, 6, 5, 4, 3)


@dataclass
class SweepConfig:
    """Inputs and every axis of a measurement sweep."""

    runs: list[str] = field(default_factory=list)
    alignment: str | None = None
    qrels: str | None = None
    geometries: list[RenderPlan] = field(default_factory=list)
    columns: list[int] = field(default_factory=lambda: list(DEFAULT_COLUMN_SIZES))
    reductions: list[str] = field(default_factory=list)
    base_columns: int = 10
    bases: list[str] = field(default_factory=lambda: [BrowsingModelSpec.base])
    adjustments: list[str] = field(default_factory=lambda: [BrowsingModelSpec.adjustment])
    alphas: list[float] = field(default_factory=lambda: [BrowsingModelSpec.alpha])
    gammas: list[float] = field(default_factory=lambda: [BrowsingModelSpec.gamma])
    betas: list[float] = field(default_factory=lambda: [BrowsingModelSpec.beta])
    satisfaction: float = BrowsingModelSpec.satisfaction
    within_row: str = BrowsingModelSpec.within_row
    metrics: list[str] = field(default_factory=lambda: ["awrf"])
    target: str = "catalog"
    delta: str = "l1"
    protected: str | None = None
    exclude_unknown: bool = False
    per_request: bool = False
    # Accepted and validated so existing ``--jobs`` callers keep working;
    # the sweep always runs serially: its per-request work is GIL-bound
    # Python, which threads do not speed up.
    jobs: int = 1
    output: str | None = None

    def validate(self) -> None:
        if not self.runs:
            raise ConfigError("at least one run file is required")
        if self.alignment is None:
            raise ConfigError("an alignment file is required")
        if not self.metrics:
            raise ConfigError("at least one metric is required")
        for metric in self.metrics:
            if metric not in METRICS:
                raise ConfigError(f"unknown metric {metric!r}")
        for axis in ("bases", "adjustments", "alphas", "gammas", "betas"):
            if not getattr(self, axis):
                raise ConfigError(f"at least one value is required for {axis}")
        narrow = [c for c in self.columns if c < 1]
        if narrow:
            raise ConfigError(f"column sizes must be at least 1, got {narrow}")
        if self.reductions and not self.columns:
            raise ConfigError("reductions requested but no column sizes given")
        if not self.geometries and not self.reductions:
            raise ConfigError("no layouts to measure: give geometries or reductions")
        mode = self.target.split(":", 1)[0]
        if mode not in ESTIMATOR_MODES:
            raise ConfigError(f"unknown target estimator {self.target!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.output is None:
            raise ConfigError("an output path is required")
        # Building every plan, browsing model and the distance checks
        # reduction names, the base width, each model name and parameter and
        # the distance kind before any input is parsed.
        self.plans()
        self.browsing_specs()
        self.distance()

    def plans(self) -> list[RenderPlan]:
        plans = list(self.geometries)
        for red in self.reductions:
            for size in self.columns:
                plans.append(
                    RenderPlan(
                        geometry=WRAPPED_GRID,
                        columns=size,
                        reduction=red,
                        base_columns=self.base_columns,
                    )
                )
        return plans

    def browsing_specs(self) -> list[BrowsingModelSpec]:
        """Cross-product of bases, adjustments, and the parameter grids.

        Parameters inert for an adjustment (gamma without row skipping,
        beta without slow decay) stay at their defaults so the sweep does
        not emit duplicate configurations.
        """
        defaults = BrowsingModelSpec()
        specs = []
        seen = set()
        for base in self.bases:
            for adj in self.adjustments:
                gammas = self.gammas if adj == ROW_SKIP else [defaults.gamma]
                betas = self.betas if adj == SLOW_DECAY else [defaults.beta]
                for alpha in self.alphas:
                    for gamma in gammas:
                        for beta in betas:
                            key = (base, adj, alpha, gamma, beta)
                            if key in seen:
                                continue
                            seen.add(key)
                            specs.append(
                                BrowsingModelSpec(
                                    base=base,
                                    adjustment=adj,
                                    alpha=alpha,
                                    gamma=gamma,
                                    beta=beta,
                                    satisfaction=self.satisfaction,
                                    within_row=self.within_row,
                                )
                            )
        return specs

    def distance(self) -> DistanceSpec:
        kind = "signed-two-group" if self.delta == "signed" else self.delta
        return DistanceSpec(kind=kind, protected=self.protected)


def resolve_shared_target(target: str, table: AlignmentTable) -> np.ndarray | None:
    """Target distribution shared by all requests, or None when the
    estimator depends on each request's retrieved set."""
    mode = target.split(":", 1)[0]
    if mode == "retrieved":
        return None
    if mode == "fixed":
        if ":" not in target:
            raise ConfigError("fixed target needs a path: fixed:<path>")
        fixed = parse_fixed_target(target.split(":", 1)[1], table.schema)
        return population_estimator(PopulationEstimator("fixed", fixed), table)
    if mode not in ("uniform", "catalog"):
        raise ConfigError(f"unknown target estimator {target!r}")
    return population_estimator(PopulationEstimator(mode), table)


@dataclass(frozen=True)
class _Shape:
    """Where a plan puts every ranking of ``length`` items: the 0-based ranks
    it displays, in reading order, and the lengths of the rows they fill."""

    length: int
    displayed: np.ndarray
    row_lengths: np.ndarray


class _SweepArrays:
    """Layout shapes and grade-free attention weights of one sweep.

    A plan places items by rank alone, so all rankings of one length share
    a shape, and weights that ignore grades are shared by every ranking of
    that shape, system output and ideal alike.
    """

    def __init__(
        self,
        plans: Sequence[RenderPlan],
        specs: Sequence[BrowsingModelSpec],
        rel: RelevanceJudgments | None,
    ):
        self.plans = plans
        self.specs = specs
        self.rel = rel
        self._shapes: dict[tuple[int, int], _Shape] = {}
        self._weights: dict[tuple[int, int, int], np.ndarray] = {}

    def shape(self, pi: int, length: int) -> _Shape:
        """Shape of plan ``pi``, found by rendering a synthetic ranking."""
        shape = self._shapes.get((pi, length))
        if shape is None:
            synthetic = Ranking("synthetic", 0, tuple(str(i) for i in range(length)))
            grid = self.plans[pi].render(synthetic)
            displayed = np.array([int(doc) for doc in grid.items], dtype=np.intp)
            shape = _Shape(length, displayed, grid.row_lengths)
            self._shapes[(pi, length)] = shape
        return shape

    def weights(self, pi: int, si: int, shape: _Shape, grades: np.ndarray) -> np.ndarray:
        """Attention on the displayed slots of a shape under spec ``si``;
        ``grades`` are those of the displayed items, in reading order."""
        spec = self.specs[si]
        if not shape_only(spec, self.rel):
            return position_weights(continuations(grades, spec), shape.row_lengths, spec)
        key = (pi, si, shape.length)
        weights = self._weights.get(key)
        if weights is None:
            cont = np.full(len(shape.displayed), spec.alpha)
            weights = position_weights(cont, shape.row_lengths, spec)
            weights.flags.writeable = False
            self._weights[key] = weights
        return weights


def _plan_label(plan: RenderPlan) -> str:
    if plan.reduction != "none":
        return f"{plan.geometry}:{plan.columns} ({plan.reduction} from {plan.base_columns})"
    if plan.geometry == WRAPPED_GRID:
        return f"{plan.geometry}:{plan.columns}"
    return plan.geometry


def _spec_label(spec: BrowsingModelSpec) -> str:
    return (
        f"{spec.base}/{spec.adjustment} alpha={spec.alpha:g} "
        f"gamma={spec.gamma:g} beta={spec.beta:g}"
    )


def _evaluate_request(
    run: RunFile,
    request: str,
    metrics: Sequence[str],
    table: AlignmentTable,
    rel: RelevanceJudgments | None,
    shared_target: np.ndarray | None,
    delta: DistanceSpec,
    exclude_unknown: bool,
    arrays: _SweepArrays,
) -> dict[tuple[int, int, str], float]:
    rankings = run.rankings[request]
    union = sorted({doc for ranking in rankings for doc in ranking.items})
    if shared_target is None:
        tgt = population_estimator(PopulationEstimator("retrieved"), table, union)
    else:
        tgt = shared_target
    slot_of = {doc: i for i, doc in enumerate(union)}
    positions = [
        np.array([slot_of[doc] for doc in ranking.items], dtype=np.intp)
        for ranking in rankings
    ]
    members = table.matrix(union)
    # Without judgments every weight is grade-free and the grades go unused.
    grades = rel.grades(request, union) if rel is not None else np.zeros(len(union))
    if "eel" in metrics:
        # The ideal policy orders by (-grade, doc); the union is in doc order.
        best_first = np.argsort(-grades, kind="stable")
        ideal_grades = grades[best_first]
        ideal_members = members[best_first]
        tiers = grade_tiers(ideal_grades)
    out: dict[tuple[int, int, str], float] = {}
    for pi, plan in enumerate(arrays.plans):
        shown = []
        for pos in positions:
            shape = arrays.shape(pi, len(pos))
            docs = pos[shape.displayed]
            shown.append((shape, grades[docs], members[docs]))
        if "eel" in metrics:
            ideal_shape = arrays.shape(pi, len(union))
            ideal_shown = ideal_grades[ideal_shape.displayed]
        for si, spec in enumerate(arrays.specs):
            try:
                exposures = [
                    group_exposure(arrays.weights(pi, si, shape, shown_grades), mat)
                    for shape, shown_grades, mat in shown
                ]
                if "awrf" in metrics:
                    scores = [
                        awrf(expo, tgt, delta, table.schema, exclude_unknown)
                        for expo in exposures
                    ]
                    out[(pi, si, "awrf")] = awrf_system(scores)
                if "eel" in metrics:
                    system = exposures[0].copy()
                    for expo in exposures[1:]:
                        system += expo
                    system /= len(exposures)
                    slot_weight = np.zeros(len(union))
                    slot_weight[ideal_shape.displayed] = arrays.weights(
                        pi, si, ideal_shape, ideal_shown
                    )
                    ideal = ideal_members.T @ tier_means(slot_weight, tiers)
                    if exclude_unknown:
                        system = drop_unknown(system, table.schema)
                        ideal = drop_unknown(ideal, table.schema)
                    out[(pi, si, "eel")] = eel(system, ideal)
            except MetricError as exc:
                raise MetricError(
                    f"system {run.system!r}, request {request!r}, plan "
                    f"{_plan_label(plan)}, spec {_spec_label(spec)}: {exc}"
                ) from exc
    return out


def measure(config: SweepConfig) -> list[ResultsRow]:
    """Run the configured sweep and write the results CSV.

    All input files are parsed before any computation, so missing or
    malformed inputs fail fast. Expected-exposure rows need judgments;
    when none are configured they are skipped with a warning.
    """
    config.validate()
    runs = [parse_run(path) for path in config.runs]
    table = parse_alignment(config.alignment)
    rel = parse_qrels(config.qrels) if config.qrels else None

    metrics = list(config.metrics)
    if "eel" in metrics and rel is None:
        print(
            "warning: expected-exposure rows skipped (no judgments configured)",
            file=sys.stderr,
        )
        metrics = [m for m in metrics if m != "eel"]
        if not metrics:
            raise ConfigError("nothing to measure: eel needs judgments")

    plans = config.plans()
    specs = config.browsing_specs()
    delta = config.distance()
    shared_target = resolve_shared_target(config.target, table)

    arrays = _SweepArrays(plans, specs, rel)
    results = {
        (ri, request): _evaluate_request(
            run,
            request,
            metrics,
            table,
            rel,
            shared_target,
            delta,
            config.exclude_unknown,
            arrays,
        )
        for ri, run in enumerate(runs)
        for request in run.requests()
    }

    rows: list[ResultsRow] = []
    for ri, run in enumerate(runs):
        requests = run.requests()
        for pi, plan in enumerate(plans):
            for si, spec in enumerate(specs):
                # The COMPARE_KEYS columns of every row of this (plan, spec).
                layout_model = (
                    plan.geometry,
                    plan.columns,
                    plan.reduction,
                    spec.base,
                    spec.adjustment,
                    spec.alpha,
                    spec.gamma,
                    spec.beta,
                )
                for metric in metrics:
                    per_request = [
                        results[(ri, request)][(pi, si, metric)] for request in requests
                    ]
                    aggregate = awrf_system(per_request)
                    rows.append(ResultsRow(run.system, "ALL", *layout_model, metric, aggregate))
                    if config.per_request:
                        for request, value in zip(requests, per_request):
                            rows.append(
                                ResultsRow(run.system, request, *layout_model, metric, value)
                            )
    write_results(rows, config.output)
    return rows


# ---------------------------------------------------------------------------
# ordering-consistency comparison of measured configurations
# ---------------------------------------------------------------------------

# The layout and model columns of a results row, between request and metric.
COMPARE_KEYS = RESULT_FIELDS[2:-2]


def compare_orderings(
    rows: Sequence[ResultsRow], keys: Sequence[str] = COMPARE_KEYS
) -> list[dict]:
    """Kendall tau-b between the system orderings of configuration pairs.

    Configurations are the distinct values of ``keys`` (plus the metric)
    among aggregate rows. Pairs sharing fewer than two systems are
    reported as not comparable rather than failing.
    """
    from scipy.stats import kendalltau

    for key in keys:
        if key not in COMPARE_KEYS:
            raise ConfigError(f"unknown grouping key {key!r}")
    configs: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row.request != "ALL":
            continue
        key = (row.metric,) + tuple(getattr(row, k) for k in keys)
        configs.setdefault(key, {})[row.system] = row.value
    reports = []
    ordered = sorted(configs)
    for i, key_a in enumerate(ordered):
        for key_b in ordered[i + 1 :]:
            if key_a[0] != key_b[0]:
                continue
            systems = sorted(set(configs[key_a]) & set(configs[key_b]))
            label_a = _config_label(keys, key_a[1:])
            label_b = _config_label(keys, key_b[1:])
            report = {
                "metric": key_a[0],
                "config_a": label_a,
                "config_b": label_b,
                "n_systems": len(systems),
            }
            if len(systems) < 2:
                report["comparable"] = False
            else:
                a = np.array([configs[key_a][s] for s in systems])
                b = np.array([configs[key_b][s] for s in systems])
                tau = kendalltau(a, b).statistic
                deltas = b - a
                report.update(
                    comparable=True,
                    tau=float(tau),
                    mean_delta=float(deltas.mean()),
                    max_abs_delta=float(np.abs(deltas).max()),
                    deltas={s: float(d) for s, d in zip(systems, deltas)},
                )
            reports.append(report)
    return reports


def _config_label(keys: Sequence[str], values: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in zip(keys, values))
