"""How ``gridfair measure`` turns flags and YAML keys into a ``SweepConfig``.

Each setting can come from a flag or a YAML key; a flag wins over its key,
and a setting given by neither keeps the ``SweepConfig`` default.
"""

from dataclasses import fields, replace

import pytest
import yaml

from gridfair import ConfigError, RenderPlan, SweepConfig
from gridfair.cli import _CONFIG_KEYS, _build_sweep_config, build_parser

# Every key set to a value that differs from the SweepConfig default.
FULL_YAML = {
    "runs": ["y1.run", "y2.run"],
    "alignment": "y.tsv",
    "qrels": "y.qrels",
    "geometries": ["vertical-linear", "wrapped-grid:4"],
    "columns": [6, 3],
    "reductions": ["truncate"],
    "base_columns": 8,
    "models": ["cascade"],
    "adjustments": ["row-skip", "slow-decay"],
    "alphas": [0.3, 0.6],
    "gammas": [0.2],
    "betas": [2.5],
    "satisfaction": 0.25,
    "within_row": "full",
    "metrics": ["awrf", "eel"],
    "target": "uniform",
    "delta": "l2",
    "protected": "A",
    "exclude_unknown": True,
    "per_request": True,
    "jobs": 2,
    "output": "y.csv",
}

FROM_YAML = SweepConfig(
    runs=["y1.run", "y2.run"],
    alignment="y.tsv",
    qrels="y.qrels",
    geometries=[RenderPlan("vertical-linear", 1), RenderPlan("wrapped-grid", 4)],
    columns=[6, 3],
    reductions=["truncate"],
    base_columns=8,
    bases=["cascade"],
    adjustments=["row-skip", "slow-decay"],
    alphas=[0.3, 0.6],
    gammas=[0.2],
    betas=[2.5],
    satisfaction=0.25,
    within_row="full",
    metrics=["awrf", "eel"],
    target="uniform",
    delta="l2",
    protected="A",
    exclude_unknown=True,
    per_request=True,
    jobs=2,
    output="y.csv",
)

# Every flag set to a value that differs from FULL_YAML's. The two switches
# can only turn a setting on, so they override a YAML ``false``.
ALL_FLAGS = [
    "--run", "f1.run", "--run", "f2.run",
    "--alignment", "f.tsv",
    "--qrels", "f.qrels",
    "--geometry", "horizontal-linear",
    "--columns", "5",
    "--reduction", "rewrap",
    "--base-columns", "9",
    "--model", "geometric",
    "--adjust", "none",
    "--alpha", "0.7",
    "--gamma", "0.9,0.1",
    "--beta", "1.5",
    "--satisfaction", "0.75",
    "--within-row", "prefix",
    "--metrics", "eel",
    "--target", "retrieved",
    "--delta", "signed",
    "--protected", "B",
    "--exclude-unknown",
    "--per-request",
    "--jobs", "3",
    "--output", "f.csv",
]

FROM_FLAGS = SweepConfig(
    runs=["f1.run", "f2.run"],
    alignment="f.tsv",
    qrels="f.qrels",
    geometries=[RenderPlan("horizontal-linear", 0)],
    columns=[5],
    reductions=["rewrap"],
    base_columns=9,
    bases=["geometric"],
    adjustments=["none"],
    alphas=[0.7],
    gammas=[0.9, 0.1],
    betas=[1.5],
    satisfaction=0.75,
    within_row="prefix",
    metrics=["eel"],
    target="retrieved",
    delta="signed",
    protected="B",
    exclude_unknown=True,
    per_request=True,
    jobs=3,
    output="f.csv",
)

SWITCHES_OFF = {**FULL_YAML, "exclude_unknown": False, "per_request": False}
FROM_SWITCHES_OFF = replace(FROM_YAML, exclude_unknown=False, per_request=False)

CASES = {
    "bare": ([], None, SweepConfig()),
    "yaml-only": ([], FULL_YAML, FROM_YAML),
    "flags-only": (ALL_FLAGS, None, FROM_FLAGS),
    "flags-override-every-key": (ALL_FLAGS, SWITCHES_OFF, FROM_FLAGS),
    "yaml-switches-off": ([], SWITCHES_OFF, FROM_SWITCHES_OFF),
    "scalar-yaml-values": (
        [],
        {
            "runs": "y.run",
            "geometries": "wrapped-grid:3",
            "columns": 4,
            "reductions": "truncate",
            "models": "cascade",
            "adjustments": "row-skip",
            "alphas": 0.3,
            "gammas": 0,
            "betas": 2,
            "metrics": "eel",
        },
        SweepConfig(
            runs=["y.run"],
            geometries=[RenderPlan("wrapped-grid", 3)],
            columns=[4],
            reductions=["truncate"],
            bases=["cascade"],
            adjustments=["row-skip"],
            alphas=[0.3],
            gammas=[0.0],
            betas=[2.0],
            metrics=["eel"],
        ),
    ),
    "null-keys-keep-defaults": ([], {key: None for key in FULL_YAML}, SweepConfig()),
    "empty-geometry-flag-falls-back-to-yaml": (
        ["--geometry", ""],
        {"geometries": ["wrapped-grid:2"]},
        SweepConfig(geometries=[RenderPlan("wrapped-grid", 2)]),
    ),
    "empty-list-flag-overrides-yaml": (
        ["--model", "", "--alpha", ""],
        {"models": ["cascade"], "alphas": [0.3]},
        SweepConfig(bases=[], alphas=[]),
    ),
    "one-flag-narrows-one-key": (
        ["--alpha", "0.9"],
        FULL_YAML,
        replace(FROM_YAML, alphas=[0.9]),
    ),
}


def build(tmp_path, argv, data):
    if data is not None:
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    return _build_sweep_config(build_parser().parse_args(["measure", *argv]))


@pytest.mark.parametrize("argv,data,expected", CASES.values(), ids=list(CASES))
def test_flags_and_keys_build_the_expected_config(tmp_path, argv, data, expected):
    assert build(tmp_path, argv, data) == expected


@pytest.mark.parametrize("name", [f.name for f in fields(SweepConfig)])
def test_every_field_is_covered_by_a_key_and_a_flag(name):
    """The table above would miss a setting that is not read from both."""
    assert getattr(FROM_YAML, name) != getattr(SweepConfig(), name)
    assert getattr(FROM_FLAGS, name) != getattr(FROM_SWITCHES_OFF, name)


def test_config_keys_are_the_documented_set():
    assert _CONFIG_KEYS == {
        "runs",
        "alignment",
        "qrels",
        "geometries",
        "columns",
        "reductions",
        "base_columns",
        "models",
        "adjustments",
        "alphas",
        "gammas",
        "betas",
        "satisfaction",
        "within_row",
        "metrics",
        "target",
        "delta",
        "protected",
        "exclude_unknown",
        "per_request",
        "jobs",
        "output",
    }


def subcommand_flags(name):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {
        flag
        for action in sub.choices[name]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def test_measure_flags_are_unchanged():
    assert subcommand_flags("measure") == {
        "--config", "--run", "--qrels", "--alignment", "--geometry", "--columns",
        "--base-columns", "--reduction", "--model", "--adjust", "--alpha",
        "--gamma", "--beta", "--satisfaction", "--within-row", "--metrics",
        "--target", "--delta", "--protected", "--exclude-unknown",
        "--per-request", "--jobs", "--output",
    }


@pytest.mark.parametrize("command", ["attention", "rerank"])
def test_single_model_flags_are_unchanged(command):
    model = {
        "--model", "--adjust", "--alpha", "--gamma", "--beta", "--satisfaction", "--within-row",
    }
    assert model <= subcommand_flags(command)


VALID = SweepConfig(
    runs=["a.run"], alignment="a.tsv", geometries=[RenderPlan("vertical-linear", 1)], output="o.csv"
)


def test_a_complete_config_validates_without_reading_files():
    VALID.validate()


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"runs": []}, "at least one run file is required"),
        ({"alignment": None}, "an alignment file is required"),
        ({"metrics": []}, "at least one metric is required"),
        ({"metrics": ["awrf", "ndcg"]}, "unknown metric 'ndcg'"),
        (
            {"reductions": ["truncate"], "columns": []},
            "reductions requested but no column sizes given",
        ),
        ({"output": None}, "an output path is required"),
    ],
    ids=["no-runs", "no-alignment", "no-metrics", "unknown-metric", "no-columns", "no-output"],
)
def test_validate_names_the_missing_setting(changes, message):
    """The library call reports each gap as the CLI does, before any input
    is read: none of the named files exists."""
    with pytest.raises(ConfigError) as info:
        replace(VALID, **changes).validate()
    assert str(info.value) == message
