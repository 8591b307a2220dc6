"""Command-line harness.

Subcommands:

* ``attention``: print the weight table of a browsing model under one
  layout (optionally cross-checked by simulation).
* ``measure``: sweep layouts x browsing models x metrics over run files
  and write a results CSV.
* ``rerank``: greedily re-rank a run toward a target group distribution.
* ``compare``: ordering-consistency report between measured
  configurations.

Exit codes: 0 success, 1 usage/config errors, 2 I/O and parse errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints

from .browse import ADJUSTMENTS, BASES, ROW_SKIP, BrowsingModelSpec, continuations, position_weights
from .errors import ConfigError, GridfairError, ParseError
from .harness import (
    COMPARE_KEYS,
    SweepConfig,
    compare_orderings,
    measure,
    resolve_shared_target,
    split_target,
)
from .io import parse_alignment, parse_run, read_results, read_text, write_run
from .layout import VERTICAL, WRAPPED_GRID, RenderPlan, parse_geometry
from .mc import simulate_row_skip
from .metrics import PopulationEstimator, population_estimator
from .rerank import RerankSpec, greedy_rerank

# Each ``measure`` flag stores into the SweepConfig field of the same name
# (``--model`` into ``bases``), and each YAML key is a field name, except
# that ``bases`` is read from ``models``.
_YAML_KEYS = {f.name: "models" if f.name == "bases" else f.name for f in fields(SweepConfig)}
_CONFIG_KEYS = set(_YAML_KEYS.values())
_SWEEP_TYPES = get_type_hints(SweepConfig)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise ConfigError(message)


def _split(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _floats(text: str) -> list[float]:
    try:
        return [float(part) for part in _split(text)]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> list[int]:
    try:
        return [int(part) for part in _split(text)]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _load_config_file(path) -> dict:
    # Imported here: only a --config file needs it, and it costs every
    # other command start-up time and memory.
    import yaml

    try:
        text = read_text(path)
    except ParseError as exc:
        raise ConfigError(f"cannot parse config {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}")
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return data


def _as_list(value) -> list:
    if isinstance(value, (str, int, float)):
        return [value]
    return list(value)


def _convert(kind, value):
    """A flag or YAML value as a SweepConfig field of type ``kind``; a
    scalar where a list is expected is a list of one."""
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [_convert(item, v) for v in _as_list(value)]
    if kind is RenderPlan:
        return parse_geometry(str(value))
    if get_args(kind):  # ``T | None``, and the value is not None
        kind = get_args(kind)[0]
    return kind(value)


def _build_sweep_config(args) -> SweepConfig:
    """Each field from its flag, else its YAML key, else its default."""
    data = _load_config_file(args.config) if args.config else {}
    values = {}
    for name, key in _YAML_KEYS.items():
        value = getattr(args, name)
        if value is None:
            value = data.get(key)
        if value is not None:
            try:
                values[name] = _convert(_SWEEP_TYPES[name], value)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for config key {key}: {value!r}")
    return SweepConfig(**values)


def _browsing_spec_from_args(args) -> BrowsingModelSpec:
    """The spec the model flags name; unset flags keep the spec's defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(BrowsingModelSpec)}
    return BrowsingModelSpec(**{k: v for k, v in given.items() if v is not None})


def _cmd_attention(args) -> int:
    """Rank, row, column and weight of each displayed slot of a plan, for
    any ranking of ``--length`` items; every grade is 0."""
    spec = _browsing_spec_from_args(args)
    if args.geometry:
        plan = parse_geometry(args.geometry)
    elif args.columns is not None:
        plan = RenderPlan(WRAPPED_GRID, args.columns)
    else:
        plan = RenderPlan(VERTICAL, 1)
    if args.length < 0:
        raise ConfigError("length must be non-negative")
    if args.simulate and (spec.adjustment != ROW_SKIP or spec.within_row != "prefix"):
        raise ConfigError("--simulate covers the prefix-mode row-skip model only")
    ranks, row_lengths = plan.shape(args.length)
    cont = continuations([0.0] * len(ranks), spec)
    weights = position_weights(cont, row_lengths, spec)
    header = "rank row col weight"
    if args.simulate:
        simulated, stderr = simulate_row_skip(cont, row_lengths, spec, args.simulate, args.seed)
        header += " simulated stderr"
    print(header)
    cells = ((row, col) for row, length in enumerate(row_lengths.tolist()) for col in range(length))
    for rank, (row, col) in enumerate(cells):
        line = f"{rank} {row} {col} {float(weights[rank]):.10g}"
        if args.simulate:
            line += f" {simulated[rank]:.10g} {stderr[rank]:.3g}"
        print(line)
    return 0


def _cmd_measure(args) -> int:
    config = _build_sweep_config(args)
    rows = measure(config)
    print(f"wrote {len(rows)} rows to {config.output}")
    return 0


def _cmd_rerank(args) -> int:
    split_target(args.target)
    run = parse_run(args.run)
    table = parse_alignment(args.alignment)
    browsing = _browsing_spec_from_args(args)
    shared = resolve_shared_target(args.target, table)
    reranked = []
    for request in run.requests():
        for ranking in run.rankings[request]:
            if shared is None:
                target = population_estimator(
                    PopulationEstimator("retrieved"), table, sorted(ranking.items)
                )
            else:
                target = shared
            spec = RerankSpec(target=target, browsing=browsing, pool=args.pool)
            reranked.append(greedy_rerank(ranking, table, spec))
    write_run(reranked, run.system, args.output)
    print(f"wrote {len(reranked)} re-ranked lists to {args.output}")
    return 0


def _cmd_compare(args) -> int:
    rows = read_results(args.results)
    keys = _split(args.by) if args.by else list(COMPARE_KEYS)
    reports = compare_orderings(rows, keys)
    if not reports:
        print("nothing to compare (need aggregate rows for >= 2 configurations)")
    for rep in reports:
        head = f"[{rep['metric']}] {rep['config_a']}  vs  {rep['config_b']}"
        if not rep["comparable"]:
            print(f"{head}\n  not comparable ({rep['n_systems']} shared system(s))")
            continue
        print(
            f"{head}\n"
            f"  tau_b={rep['tau']:.6g} systems={rep['n_systems']} "
            f"mean_delta={rep['mean_delta']:.6g} max|delta|={rep['max_abs_delta']:.6g}"
        )
        if args.per_system:
            for system, delta in sorted(rep["deltas"].items()):
                print(f"    {system}: {delta:+.6g}")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(
                ["metric", "config_a", "config_b", "n_systems", "tau_b", "mean_delta", "max_abs_delta"]
            )
            for rep in reports:
                writer.writerow(
                    [
                        rep["metric"],
                        rep["config_a"],
                        rep["config_b"],
                        rep["n_systems"],
                        f"{rep['tau']:.12g}" if rep["comparable"] else "",
                        f"{rep['mean_delta']:.12g}" if rep["comparable"] else "",
                        f"{rep['max_abs_delta']:.12g}" if rep["comparable"] else "",
                    ]
                )
        print(f"wrote comparison CSV to {args.output}")
    return 0


def _add_model_flags(parser, lists: bool):
    """Browsing-model flags; comma-separated lists on ``measure``."""
    if lists:
        parser.add_argument("--model", dest="bases", type=_split, help="base models (geometric,cascade)")
        parser.add_argument(
            "--adjust", dest="adjustments", type=_split, help="adjustments (none,row-skip,slow-decay)"
        )
        parser.add_argument("--alpha", dest="alphas", type=_floats, help="continuation probabilities")
        parser.add_argument("--gamma", dest="gammas", type=_floats, help="row-skipping probabilities")
        parser.add_argument("--beta", dest="betas", type=_floats, help="slow-decay boosts")
    else:
        parser.add_argument("--model", dest="base", choices=BASES)
        parser.add_argument("--adjust", dest="adjustment", choices=ADJUSTMENTS)
        parser.add_argument("--alpha", type=float)
        parser.add_argument("--gamma", type=float)
        parser.add_argument("--beta", type=float)
    parser.add_argument("--satisfaction", type=float, help="cascade stop strength in [0,1]")
    parser.add_argument("--within-row", dest="within_row", choices=("prefix", "full"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_att = sub.add_parser("attention", help="print a browsing model's weight table")
    p_att.add_argument("--length", type=int, required=True)
    layout = p_att.add_mutually_exclusive_group()
    layout.add_argument("--geometry", help="vertical-linear | horizontal-linear | wrapped-grid:<c>")
    layout.add_argument("--columns", type=int, help="wrapped-grid width (instead of --geometry)")
    _add_model_flags(p_att, lists=False)
    p_att.add_argument("--simulate", type=int, default=0, help="cross-check weights with this many sampled sessions")
    p_att.add_argument("--seed", type=int, default=0)
    p_att.set_defaults(func=_cmd_attention)

    p_meas = sub.add_parser("measure", help="sweep layouts and models over run files")
    p_meas.add_argument("--config", help="YAML config; flags override its keys")
    p_meas.add_argument("--run", dest="runs", action="append", help="run file (repeatable)")
    p_meas.add_argument("--qrels")
    p_meas.add_argument("--alignment")
    # An empty --geometry leaves the config's geometries in place.
    p_meas.add_argument(
        "--geometry",
        dest="geometries",
        type=lambda text: _split(text) if text else None,
        help="comma-separated geometry tokens",
    )
    p_meas.add_argument("--columns", type=_ints, help="column sizes for reductions")
    p_meas.add_argument("--base-columns", dest="base_columns", type=int)
    p_meas.add_argument("--reduction", dest="reductions", type=_split, help="truncate,rewrap")
    _add_model_flags(p_meas, lists=True)
    p_meas.add_argument("--metrics", type=_split, help="awrf,eel")
    p_meas.add_argument("--target", help="uniform | catalog | retrieved | fixed:<path>")
    p_meas.add_argument("--delta", choices=("l1", "l2", "signed"))
    p_meas.add_argument("--protected", help="protected group for the signed distance")
    p_meas.add_argument("--exclude-unknown", dest="exclude_unknown", action="store_const", const=True)
    p_meas.add_argument("--per-request", dest="per_request", action="store_const", const=True)
    p_meas.add_argument("--jobs", type=int, help="accepted for compatibility; the sweep runs serially")
    p_meas.add_argument("--output")
    p_meas.set_defaults(func=_cmd_measure)

    p_rr = sub.add_parser("rerank", help="greedy fairness-aware re-ranking of a run")
    p_rr.add_argument("--run", required=True)
    p_rr.add_argument("--alignment", required=True)
    p_rr.add_argument("--output", required=True)
    p_rr.add_argument("--target", default="catalog")
    p_rr.add_argument("--pool", type=int)
    _add_model_flags(p_rr, lists=False)
    p_rr.set_defaults(func=_cmd_rerank)

    p_cmp = sub.add_parser("compare", help="ordering consistency between configurations")
    p_cmp.add_argument("--results", required=True)
    p_cmp.add_argument("--by", help=f"grouping keys (default {','.join(COMPARE_KEYS)})")
    p_cmp.add_argument("--per-system", dest="per_system", action="store_true")
    p_cmp.add_argument("--output", help="also write the report as CSV")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridfairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
