"""Experiment orchestration: layout/model sweeps over parsed runs.

A sweep evaluates every combination of system, layout plan, browsing
model, and metric, producing one aggregate row per combination (and
optionally per-request rows). Each run is evaluated as a whole, from its
parsed columns: the unions of its requests' sampled documents are
concatenated into one array of grades and membership rows, and every
ranking (and, for EEL, every request's ideal ordering) becomes a row of
positions into it, in one stack padded to the longest row. Per plan one
shape is rendered, for that longest row; a shorter row shows a prefix of
it. Per (plan, browsing model) one batched pass gives the weights, from
the grades of the displayed items (padding continues with 1.0, which
changes no product over real items), then the exposures and scores of
all of them. A pass equal to an earlier one by construction (the same
displayed ranks, and row lengths where the model reads them) is copied,
not computed again. The results CSV is written straight from the value
arrays, in an order fixed by sorting the systems, requests and
configurations once.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .browse import (
    ADJUST_NONE,
    ROW_SKIP,
    SLOW_DECAY,
    BrowsingModelSpec,
    attention,  # unused here; perfbench/tracer.py wraps this name
    continuations,
    position_weights,
)
from .core import AlignmentTable, RelevanceJudgments
from .errors import ConfigError, MetricError
from .io import (
    RESULT_FIELDS,
    ResultsGrid,
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
    group_exposure,
    ideal_exposure,
    population_estimator,
    target_exposure,  # unused by the sweep; perfbench/tracer.py wraps this name
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
    # the sweep runs serially, as one batched pass per run.
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
        split_target(self.target)
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
        """The geometries, then every reduction at every column size.

        A plan with the same output columns (geometry, columns, reduction)
        as an earlier one is dropped, so repeated tokens are measured once.
        """
        reduced = (
            RenderPlan(
                geometry=WRAPPED_GRID,
                columns=size,
                reduction=red,
                base_columns=self.base_columns,
            )
            for red in self.reductions
            for size in self.columns
        )
        plans = {}
        for plan in (*self.geometries, *reduced):
            plans.setdefault((plan.geometry, plan.columns, plan.reduction), plan)
        return list(plans.values())

    def browsing_specs(self) -> list[BrowsingModelSpec]:
        """Cross-product of bases, adjustments, and the parameter grids.

        Parameters inert for an adjustment (gamma without row skipping,
        beta without slow decay) stay at their defaults so the sweep does
        not emit duplicate configurations.
        """
        defaults = BrowsingModelSpec()
        keys = dict.fromkeys(
            (base, adj, alpha, gamma, beta)
            for base, adj in itertools.product(self.bases, self.adjustments)
            for alpha, gamma, beta in itertools.product(
                self.alphas,
                self.gammas if adj == ROW_SKIP else [defaults.gamma],
                self.betas if adj == SLOW_DECAY else [defaults.beta],
            )
        )
        return [
            BrowsingModelSpec(*key, satisfaction=self.satisfaction, within_row=self.within_row)
            for key in keys
        ]

    def distance(self) -> DistanceSpec:
        kind = "signed-two-group" if self.delta == "signed" else self.delta
        return DistanceSpec(kind=kind, protected=self.protected)


def split_target(target: str) -> tuple[str, str | None]:
    """The estimator of a target token and, for ``fixed:<path>``, its path.
    Only ``fixed`` takes a suffix."""
    mode, colon, path = target.partition(":")
    if mode not in ESTIMATOR_MODES:
        raise ConfigError(f"unknown target estimator {target!r}")
    if mode == "fixed" and not path:
        raise ConfigError("fixed target needs a path: fixed:<path>")
    if mode != "fixed" and colon:
        raise ConfigError(f"target estimator {mode!r} takes no suffix, got {target!r}")
    return mode, path or None


def resolve_shared_target(target: str, table: AlignmentTable) -> np.ndarray | None:
    """Target distribution shared by all requests, or None when the
    estimator depends on each request's retrieved set."""
    mode, path = split_target(target)
    if mode == "retrieved":
        return None
    if mode == "fixed":
        fixed = parse_fixed_target(path, table.schema)
        return population_estimator(PopulationEstimator("fixed", fixed), table)
    return population_estimator(PopulationEstimator(mode), table)


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


class _RunRows:
    """The requests ``first:stop`` of one run as one padded stack.

    ``grades`` and ``members`` concatenate each request's union of sampled
    documents (sorted). Every ranking is a row of ``paths``, positions into
    them, numbered in request-major and sample order; for EEL, so is each
    request's ideal ordering (best grade first, ties by document), after
    the rankings. Rows are padded to the longest by repeating their last
    position; ``lengths`` holds each row's own length. For EEL,
    ``ideal_grades`` holds each ideal row's grades, best first, with
    ``-inf`` in its padding: the rows :func:`ideal_exposure` takes. All of
    it is read from the run's columns: no :class:`Ranking` is built.
    """

    def __init__(self, run, first, stop, table, rel, with_ideals):
        lists = run.request_offsets[first : stop + 1]
        bounds = run.list_offsets[lists[0] : lists[-1] + 1]
        self.counts = np.diff(lists)
        lengths = np.diff(bounds)
        list_request = np.repeat(np.arange(stop - first), self.counts)
        # Each (request, document) pair once: the unions, concatenated in
        # request order and sorted by document (codes follow name order).
        n_docs = len(run.docs)
        keys = np.repeat(list_request, lengths) * n_docs + run.doc_codes[bounds[0] : bounds[-1]]
        union, slots = np.unique(keys, return_inverse=True)
        union_request = union // n_docs
        self.union_bounds = np.searchsorted(union_request, np.arange(stop - first + 1))
        needed, doc_of = np.unique(union % n_docs, return_inverse=True)
        self.docs = run.docs[needed]
        self.doc_of = doc_of
        self.members = table.matrix(self.docs)[doc_of]
        # Without judgments every grade is 0: cascade then continues with
        # alpha everywhere, as geometric does.
        if rel is None:
            self.grades = np.zeros(len(union))
        else:
            requests = run.requests()[first:stop]
            self.grades = rel.lookup(requests, self.docs, union_request, doc_of)
        self.n_rankings = len(lengths)
        self.request_of = list_request

        # The rankings' positions, then the ideal orderings', one row each.
        positions = slots
        starts = bounds[:-1] - bounds[0]
        if with_ideals:
            best_first = np.lexsort((-self.grades, union_request))
            positions = np.concatenate((slots, best_first))
            starts = np.concatenate((starts, len(slots) + self.union_bounds[:-1]))
            lengths = np.concatenate((lengths, np.diff(self.union_bounds)))
        self.lengths = lengths
        self.width = int(lengths.max())
        span = np.minimum(np.arange(self.width), lengths[:, None] - 1)
        self.paths = positions[starts[:, None] + span]
        if with_ideals:
            real = np.arange(self.width) < lengths[self.n_rankings :, None]
            self.ideal_grades = np.where(real, self.grades[self.paths[self.n_rankings :]], -np.inf)
        # The rankings of the requests with c samples, as (requests, c) indices.
        list_starts = np.cumsum(self.counts) - self.counts
        self.sample_groups = [
            (qs, list_starts[qs][:, None] + np.arange(c))
            for c in sorted(set(self.counts.tolist()))
            for qs in [np.flatnonzero(self.counts == c)]
        ]

    def request_means(self, scores: np.ndarray) -> np.ndarray:
        """Mean of each request's per-ranking scores."""
        out = np.empty(len(self.counts))
        for qs, idx in self.sample_groups:
            out[qs] = scores[idx].mean(axis=-1)
        return out

    def request_exposures(self, exposures: np.ndarray) -> np.ndarray:
        """Each request's mean exposure, summed sample by sample."""
        out = np.empty((len(self.counts), exposures.shape[-1]))
        for qs, idx in self.sample_groups:
            per_sample = exposures[idx]
            total = per_sample[:, 0].copy()
            for j in range(1, idx.shape[1]):
                total += per_sample[:, j]
            total /= idx.shape[1]
            out[qs] = total
        return out


def _evaluate_run(
    run: RunFile,
    first: int,
    stop: int,
    metrics: Sequence[str],
    table: AlignmentTable,
    rel: RelevanceJudgments | None,
    shared_target: np.ndarray | None,
    delta: DistanceSpec,
    exclude_unknown: bool,
    plans: Sequence[RenderPlan],
    specs: Sequence[BrowsingModelSpec],
) -> dict[str, np.ndarray]:
    """Per-request values of each metric for the requests ``first:stop`` of
    ``run.requests()``, shaped (plans, specs, requests).

    An AWRF error is raised as ``plan ..., spec ...: <error>`` for the
    first (plan, spec) in sweep order that fails on any of the requests.
    """
    rows = _RunRows(run, first, stop, table, rel, "eel" in metrics)
    n = rows.n_rankings
    sizes = (len(plans), len(specs), stop - first)
    if shared_target is None:
        # The retrieved target: each request's union of sampled documents,
        # averaged in the sorted order population_estimator averages in.
        bounds = rows.union_bounds.tolist()
        targets = [rows.members[a:b].mean(axis=0) for a, b in zip(bounds[:-1], bounds[1:])]
        target = np.array(targets)[rows.request_of]
    else:
        target = shared_target
    awrf_values = np.empty(sizes)
    system = np.empty((*sizes, table.schema.size))
    # The weights of the ideals' slots by (plan, spec); hidden slots stay
    # zero, and padding, of grade -inf, adds nothing whatever it weighs.
    ideal_slots = np.zeros((*sizes[:2], len(rows.lengths) - n, rows.width))
    exposures = np.empty((n, table.schema.size))
    # Each pass computed, by what its results depend on: the displayed
    # ranks, the row lengths when the model reads them, and the spec.
    passes: dict[tuple, tuple[int, int]] = {}
    for pi, plan in enumerate(plans):
        # Plans lay items out by rank, row-major, and truncation keeps a
        # column prefix of every row, so a row of length L shows the first
        # k displayed ranks of the widest row's shape: those below L.
        displayed, row_lengths = plan.shape(rows.width)
        fresh = []
        for si, spec in enumerate(specs):
            # Only the unadjusted model is known to ignore row lengths.
            rows_read = None if spec.adjustment == ADJUST_NONE else row_lengths.tobytes()
            done = passes.setdefault((displayed.tobytes(), rows_read, spec), (pi, si))
            if done == (pi, si):
                fresh.append((si, spec))
            else:
                awrf_values[pi, si] = awrf_values[done]
                system[pi, si] = system[done]
                ideal_slots[pi, si] = ideal_slots[done]
        if not fresh:
            continue
        shown = np.searchsorted(displayed, rows.lengths)
        padded = np.arange(len(displayed)) >= shown[:, None]
        docs = rows.paths[:, displayed]
        # Padded cells weigh grade 0, which leaves each row's cascade cap
        # as it is, and then continue with 1.0, which leaves every product
        # over the real cells as it is.
        grades = np.where(padded, 0.0, rows.grades[docs])
        # Exposures of the rankings grouped by their shown count, so each
        # product runs over the real cells only.
        groups = [
            (idx, k, rows.members[docs[idx, :k]])
            for k in sorted(set(shown[:n].tolist()))
            for idx in [np.flatnonzero(shown[:n] == k)]
        ]
        for si, spec in fresh:
            cont = continuations(grades, spec)
            cont[padded] = 1.0
            weights = position_weights(cont, row_lengths, spec)
            for idx, k, mats in groups:
                exposures[idx] = group_exposure(weights[idx, :k], mats)
            ideal_slots[pi, si][:, displayed] = weights[n:]
            if "awrf" in metrics:
                try:
                    scores = awrf(exposures, target, delta, table.schema, exclude_unknown)
                except MetricError as exc:
                    raise MetricError(
                        f"plan {_plan_label(plan)}, spec {_spec_label(spec)}: {exc}"
                    ) from exc
                awrf_values[pi, si] = rows.request_means(scores)
            if "eel" in metrics:
                system[pi, si] = rows.request_exposures(exposures)
    out = {}
    if "awrf" in metrics:
        out["awrf"] = awrf_values
    if "eel" in metrics:
        ideal = ideal_exposure(ideal_slots, rows.ideal_grades, rows.members[rows.paths[n:]])
        if exclude_unknown:
            system = drop_unknown(system, table.schema)
            ideal = drop_unknown(ideal, table.schema)
        out["eel"] = eel(system, ideal)
    return out


def _run_values(run: RunFile, *args) -> dict[str, np.ndarray]:
    """:func:`_evaluate_run` over all requests of a run.

    On an error, the requests are evaluated one at a time, so the error
    names the first failing (request, plan, spec) in request-major order.
    """
    try:
        return _evaluate_run(run, 0, len(run.requests()), *args)
    except MetricError:
        for i, request in enumerate(run.requests()):
            try:
                _evaluate_run(run, i, i + 1, *args)
            except MetricError as exc:
                raise MetricError(f"system {run.system!r}, request {request!r}, {exc}") from exc
        raise


def _results(
    systems: Sequence[tuple[str, Sequence[str]]],
    values: Sequence[dict[str, np.ndarray]],
    plans: Sequence[RenderPlan],
    specs: Sequence[BrowsingModelSpec],
    metrics: Sequence[str],
    per_request: bool,
) -> ResultsGrid:
    """The results rows of each ``(system, requests)`` from its values, each
    metric's shaped (plans, specs, requests): every request's value, if
    ``per_request``, and their mean as request ``ALL``."""
    # The fields between request and value of each (plan, spec, metric).
    keys = [
        (
            plan.geometry,
            plan.columns,
            plan.reduction,
            spec.base,
            spec.adjustment,
            spec.alpha,
            spec.gamma,
            spec.beta,
            metric,
        )
        for plan in plans
        for spec in specs
        for metric in metrics
    ]
    grids = []
    for (system, requests), by_metric in zip(systems, values):
        per_key = np.stack([by_metric[m] for m in metrics], axis=2).reshape(len(keys), -1)
        # The means go first: a non-finite value makes its mean non-finite,
        # so the grid names the sweep's first non-finite value.
        means = np.array([[awrf_system(row) for row in per_key]])
        if per_request:
            grids.append((system, ("ALL", *requests), np.vstack([means, per_key.T])))
        else:
            grids.append((system, ("ALL",), means))
    return ResultsGrid(keys, grids)


def measure(config: SweepConfig) -> ResultsGrid:
    """Run the configured sweep and write the results CSV; return its rows,
    in CSV order, each built when read.

    All input files are parsed before any computation, so missing or
    malformed inputs fail fast. Expected-exposure rows need judgments;
    when none are configured they are skipped with a warning.
    """
    config.validate()
    runs = [parse_run(path) for path in config.runs]
    paths: dict[str, str] = {}
    for path, run in zip(config.runs, runs):
        if run.system in paths:
            raise ConfigError(
                f"system tag {run.system!r} is in two run files: {paths[run.system]} and {path}"
            )
        if config.per_request and "ALL" in run.requests():
            raise ConfigError(
                f"system {run.system!r} in {path} has a request named 'ALL', "
                "the id per-request output reserves for the aggregate rows"
            )
        paths[run.system] = path
    table = parse_alignment(config.alignment)
    rel = parse_qrels(config.qrels) if config.qrels else None

    metrics = list(dict.fromkeys(config.metrics))
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

    args = (metrics, table, rel, shared_target, delta, config.exclude_unknown, plans, specs)
    values = [_run_values(run, *args) for run in runs]

    systems = [(run.system, run.requests()) for run in runs]
    results = _results(systems, values, plans, specs, metrics, config.per_request)
    write_results(results, config.output)
    return results


# ---------------------------------------------------------------------------
# ordering-consistency comparison of measured configurations
# ---------------------------------------------------------------------------

# The layout and model columns of a results row, between request and metric.
COMPARE_KEYS = RESULT_FIELDS[2:-2]


def _tau_b(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall's tau-b (Kendall 1945) of two score vectors over the same
    systems: concordant minus discordant pairs i < j, divided in turn by the
    square root of each side's untied pairs; nan when either side ties
    every pair."""
    i, j = np.triu_indices(len(a), k=1)
    sign_a = np.sign(a[j] - a[i])
    sign_b = np.sign(b[j] - b[i])
    untied_a = np.count_nonzero(sign_a)
    untied_b = np.count_nonzero(sign_b)
    if not untied_a or not untied_b:
        return float("nan")
    tau = float(sign_a @ sign_b / np.sqrt(untied_a) / np.sqrt(untied_b))
    return min(1.0, max(-1.0, tau))


def compare_orderings(
    rows: Sequence[ResultsRow], keys: Sequence[str] = COMPARE_KEYS
) -> list[dict]:
    """Kendall tau-b between the system orderings of configuration pairs.

    Configurations are the distinct values of ``keys`` (plus the metric)
    among aggregate rows; only configurations of the same metric are
    paired. Pairs sharing fewer than two systems are reported as not
    comparable rather than failing. A system with two values for one
    configuration is an error.
    """
    for key in keys:
        if key not in COMPARE_KEYS:
            raise ConfigError(f"unknown grouping key {key!r}")
    configs: dict[tuple, dict[str, float]] = {}
    for row in rows:
        if row.request != "ALL":
            continue
        key = (row.metric,) + tuple(getattr(row, k) for k in keys)
        values = configs.setdefault(key, {})
        if row.system in values:
            raise MetricError(
                f"system {row.system!r} has two {row.metric} values for configuration "
                f"{_config_label(keys, key[1:])}"
            )
        values[row.system] = row.value
    by_metric: dict[str, list[tuple]] = {}
    for key in sorted(configs):
        by_metric.setdefault(key[0], []).append(key)
    reports = []
    for ordered in by_metric.values():
        for i, key_a in enumerate(ordered):
            for key_b in ordered[i + 1 :]:
                systems = sorted(set(configs[key_a]) & set(configs[key_b]))
                report = {
                    "metric": key_a[0],
                    "config_a": _config_label(keys, key_a[1:]),
                    "config_b": _config_label(keys, key_b[1:]),
                    "n_systems": len(systems),
                }
                if len(systems) < 2:
                    report["comparable"] = False
                else:
                    a = np.array([configs[key_a][s] for s in systems])
                    b = np.array([configs[key_b][s] for s in systems])
                    deltas = b - a
                    report.update(
                        comparable=True,
                        tau=_tau_b(a, b),
                        mean_delta=float(deltas.mean()),
                        max_abs_delta=float(np.abs(deltas).max()),
                        deltas={s: float(d) for s, d in zip(systems, deltas)},
                    )
                reports.append(report)
    return reports


def _config_label(keys: Sequence[str], values: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in zip(keys, values))
