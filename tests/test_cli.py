import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridfair

from gridfair import DistanceSpec, PopulationEstimator, SweepConfig, attention, awrf, group_exposure
from gridfair.cli import _browsing_spec_from_args, _build_sweep_config, build_parser, main
from gridfair.io import ResultsRow, parse_alignment, parse_run, read_results
from gridfair.layout import wrap
from gridfair.metrics import population_estimator
from gridfair.rerank import RerankSpec
from gridfair.browse import BrowsingModelSpec

from util import greedy_rerank, make_table, write_rows


def weights_from_stdout(out):
    lines = out.strip().split("\n")
    assert lines[0].split()[:4] == ["rank", "row", "col", "weight"]
    return [float(line.split()[3]) for line in lines[1:]]


def write_run_file(path, system, requests, n_items, n_samples=1, shuffle=None):
    lines = []
    for q in range(requests):
        for s in range(n_samples):
            docs = list(range(n_items))
            if shuffle is not None:
                shuffle(docs)
            for rank, d in enumerate(docs):
                lines.append(f"q{q} {s} d{d} {rank} {float(n_items - rank)} {system}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_alignment_file(path, n_items, unlabeled_every=None):
    lines = []
    for d in range(n_items):
        if unlabeled_every and d % unlabeled_every == 0:
            continue
        group = "A" if d % 2 == 0 else "B"
        lines.append(f"d{d}\t{group}\t1.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_qrels_file(path, requests, n_items):
    lines = []
    for q in range(requests):
        for d in range(0, n_items, 3):
            lines.append(f"q{q} 0 d{d} 1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestAttentionCommand:
    def test_vertical_geometric(self, capsys):
        assert main(["attention", "--length", "3", "--columns", "1"]) == 0
        got = weights_from_stdout(capsys.readouterr().out)
        assert got == [1.0, 0.5, 0.25]

    def test_row_skip_grid(self, capsys):
        code = main(
            ["attention", "--length", "4", "--columns", "2", "--adjust", "row-skip"]
        )
        assert code == 0
        assert weights_from_stdout(capsys.readouterr().out) == [1.0, 0.5, 0.625, 0.3125]

    def test_unit_beta_matches_base(self, capsys):
        main(["attention", "--length", "6", "--columns", "3"])
        base = weights_from_stdout(capsys.readouterr().out)
        main(
            ["attention", "--length", "6", "--columns", "3", "--adjust", "slow-decay", "--beta", "1.0"]
        )
        slow = weights_from_stdout(capsys.readouterr().out)
        assert base == slow

    def test_simulation_column(self, capsys):
        code = main(
            [
                "attention", "--length", "4", "--columns", "2",
                "--adjust", "row-skip", "--simulate", "20000", "--seed", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split() == ["rank", "row", "col", "weight", "simulated", "stderr"]
        exact = [float(l.split()[3]) for l in lines[1:]]
        simulated = [float(l.split()[4]) for l in lines[1:]]
        assert np.allclose(exact, simulated, atol=0.02)

    def test_simulation_needs_row_skip(self, capsys):
        assert main(["attention", "--length", "4", "--simulate", "100"]) == 1

    def test_bad_geometry_is_usage_error(self, capsys):
        assert main(["attention", "--length", "4", "--geometry", "spiral"]) == 1

    def test_geometry_and_columns_together_are_a_usage_error(self, capsys):
        args = ["attention", "--length", "4", "--geometry", "wrapped-grid:3", "--columns", "2"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with" in captured.err

    def test_horizontal_geometry_is_one_row(self, capsys):
        assert main(["attention", "--length", "3", "--geometry", "horizontal-linear"]) == 0
        rows = [line.split()[1] for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert rows == ["0", "0", "0"]

    def test_bare_flags_give_the_default_spec(self):
        args = build_parser().parse_args(["attention", "--length", "3"])
        assert _browsing_spec_from_args(args) == BrowsingModelSpec()

    def test_negative_length_is_usage_error(self, capsys):
        assert main(["attention", "--length", "-1"]) == 1
        assert "error: length must be non-negative" in capsys.readouterr().err


class TestMeasureCommand:
    @pytest.fixture
    def inputs(self, tmp_path):
        run_a = write_run_file(tmp_path / "a.run", "sysA", requests=3, n_items=12)
        rng = np.random.default_rng(5)
        run_b = write_run_file(
            tmp_path / "b.run", "sysB", requests=3, n_items=12,
            shuffle=lambda docs: rng.shuffle(docs),
        )
        alignment = write_alignment_file(tmp_path / "align.tsv", 12, unlabeled_every=5)
        qrels = write_qrels_file(tmp_path / "qrels.txt", 3, 12)
        return run_a, run_b, alignment, qrels

    def base_args(self, inputs, out, extra=()):
        run_a, run_b, alignment, _ = inputs
        return [
            "measure",
            "--run", str(run_a),
            "--run", str(run_b),
            "--alignment", str(alignment),
            "--base-columns", "10",
            "--reduction", "truncate,rewrap",
            "--columns", "10,8,6,5,4,3",
            "--output", str(out),
            *extra,
        ]

    def test_cross_product_row_count(self, inputs, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(self.base_args(inputs, out)) == 0
        rows = read_results(out)
        # 2 systems x 6 column sizes x 2 reductions x 1 model x 1 metric
        assert len(rows) == 24
        assert all(row.request == "ALL" for row in rows)

    def test_per_request_rows_opt_in(self, inputs, tmp_path):
        out = tmp_path / "res.csv"
        assert main(self.base_args(inputs, out, ("--per-request",))) == 0
        rows = read_results(out)
        assert len(rows) == 24 * (1 + 3)

    def test_reruns_are_byte_identical(self, inputs, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(self.base_args(inputs, first)) == 0
        assert main(self.base_args(inputs, second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_output(self, inputs, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(self.base_args(inputs, serial, ("--jobs", "1"))) == 0
        assert main(self.base_args(inputs, parallel, ("--jobs", "8"))) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_builds_no_ranking(self, inputs, tmp_path, monkeypatch):
        """measure reads the parsed columns; Ranking objects are only built
        when a caller reads ``RunFile.rankings``."""
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--qrels", str(inputs[3]), "--metrics", "awrf,eel"))
        assert main(args) == 0
        expected = out.read_bytes()

        def no_ranking(*args, **kwargs):
            raise AssertionError("a Ranking was built")

        monkeypatch.setattr("gridfair.io.Ranking", no_ranking)
        out.unlink()
        assert main(args) == 0
        assert out.read_bytes() == expected

    def test_sweep_does_not_import_numpy_ma(self, inputs, tmp_path):
        """``numpy.ma`` costs every sweep a lazy import; a fresh process
        that runs ``measure`` must not load it."""
        _, _, _, qrels = inputs
        extra = ("--metrics", "awrf,eel", "--qrels", str(qrels))
        args = self.base_args(inputs, tmp_path / "res.csv", extra)
        script = (
            "import sys\n"
            "from gridfair.cli import main\n"
            f"assert main({args!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(gridfair.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "False"

    def test_measure_without_config_does_not_need_yaml(self, inputs, tmp_path):
        """Only a ``--config`` file is read with yaml, so a sweep without
        one runs where yaml cannot be imported."""
        args = self.base_args(inputs, tmp_path / "res.csv")
        script = (
            "import sys\n"
            "sys.modules['yaml'] = None\n"
            "from gridfair.cli import main\n"
            f"assert main({args!r}) == 0\n"
        )
        src = str(Path(gridfair.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_eel_needs_qrels(self, inputs, tmp_path, capsys):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--metrics", "awrf,eel"))
        assert main(args) == 0
        assert "skipped" in capsys.readouterr().err
        assert all(row.metric == "awrf" for row in read_results(out))

    def test_eel_alone_without_qrels_fails(self, inputs, tmp_path):
        out = tmp_path / "res.csv"
        assert main(self.base_args(inputs, out, ("--metrics", "eel"))) == 1

    def test_eel_rows_with_qrels(self, inputs, tmp_path):
        run_a, run_b, alignment, qrels = inputs
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--metrics", "awrf,eel", "--qrels", str(qrels)))
        assert main(args) == 0
        rows = read_results(out)
        assert {row.metric for row in rows} == {"awrf", "eel"}
        assert len(rows) == 48

    def test_missing_run_file_is_io_error(self, inputs, tmp_path):
        run_a, run_b, alignment, _ = inputs
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(tmp_path / "missing.run"),
                "--alignment", str(alignment), "--geometry", "vertical-linear",
                "--output", str(out),
            ]
        )
        assert code == 2

    def test_column_wider_than_base_is_config_error(self, inputs, tmp_path):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out)
        args[args.index("--columns") + 1] = "12,8"
        assert main(args) == 1

    @pytest.mark.parametrize(
        "repeated, once",
        [
            (
                ("--geometry", "vertical-linear,vertical-linear"),
                ("--geometry", "vertical-linear"),
            ),
            (
                ("--reduction", "truncate", "--columns", "5,5"),
                ("--reduction", "truncate", "--columns", "5"),
            ),
            (("--reduction", "rewrap,rewrap"), ("--reduction", "rewrap")),
            (("--metrics", "awrf,awrf"), ("--metrics", "awrf")),
        ],
        ids=["geometry", "columns", "reduction", "metrics"],
    )
    def test_repeated_tokens_are_measured_once(self, inputs, tmp_path, repeated, once):
        expected = tmp_path / "once.csv"
        got = tmp_path / "repeated.csv"
        assert main(self.base_args(inputs, expected, once)) == 0
        assert main(self.base_args(inputs, got, repeated)) == 0
        assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("copy", [False, True], ids=["same-file", "copied-file"])
    def test_repeated_system_tag_is_config_error(self, inputs, tmp_path, capsys, copy):
        run_a, _, alignment, _ = inputs
        second = run_a
        if copy:
            second = tmp_path / "copy.run"
            second.write_bytes(run_a.read_bytes())
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--run", str(second),
                "--alignment", str(alignment), "--geometry", "vertical-linear",
                "--output", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"system tag 'sysA' is in two run files: {run_a} and {second}" in err
        assert not out.exists()

    @pytest.fixture
    def all_run(self, tmp_path):
        """A run whose second request is named like the aggregate rows."""
        path = tmp_path / "all.run"
        path.write_text(
            "q1 0 d0 0 2 sysX\nq1 0 d1 1 1 sysX\nALL 0 d1 0 2 sysX\nALL 0 d2 1 1 sysX\n",
            encoding="utf-8",
        )
        return path

    def test_request_named_all_is_config_error_per_request(
        self, inputs, all_run, tmp_path, capsys
    ):
        _, _, alignment, _ = inputs
        out = tmp_path / "res.csv"
        args = [
            "measure", "--run", str(all_run), "--alignment", str(alignment),
            "--geometry", "vertical-linear", "--output", str(out), "--per-request",
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"system 'sysX' in {all_run} has a request named 'ALL'" in err
        assert not out.exists()

    def test_request_named_all_is_averaged_without_per_request(
        self, inputs, all_run, tmp_path
    ):
        _, _, alignment, _ = inputs
        out = tmp_path / "res.csv"
        args = [
            "measure", "--run", str(all_run), "--alignment", str(alignment),
            "--geometry", "vertical-linear", "--output", str(out),
        ]
        assert main(args) == 0
        rows = read_results(out)
        assert [(row.system, row.request) for row in rows] == [("sysX", "ALL")]

    def test_no_layouts_is_config_error(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--output", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 1

    def test_config_file_with_flag_override(self, inputs, tmp_path):
        run_a, run_b, alignment, _ = inputs
        out = tmp_path / "res.csv"
        config = tmp_path / "sweep.yaml"
        config.write_text(
            "\n".join(
                [
                    f"runs: [{run_a}, {run_b}]",
                    f"alignment: {alignment}",
                    "geometries: [vertical-linear, wrapped-grid:5]",
                    "models: [geometric]",
                    f"output: {out}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(["measure", "--config", str(config)]) == 0
        rows = read_results(out)
        assert len(rows) == 4  # 2 systems x 2 geometries
        assert main(
            ["measure", "--config", str(config), "--geometry", "vertical-linear"]
        ) == 0
        assert len(read_results(out)) == 2  # flag narrowed the geometry list

    def test_unknown_config_key_rejected(self, inputs, tmp_path):
        config = tmp_path / "sweep.yaml"
        config.write_text("swep_typo: 1\n", encoding="utf-8")
        assert main(["measure", "--config", str(config)]) == 1

    def test_seed_config_key_rejected(self, inputs, tmp_path, capsys):
        config = tmp_path / "sweep.yaml"
        config.write_text("seed: 3\n", encoding="utf-8")
        assert main(["measure", "--config", str(config)]) == 1
        assert "unknown config keys: ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--alpha", "0.5,x", "expected comma-separated numbers, got '0.5,x'"),
            ("--columns", "5,x", "expected comma-separated integers, got '5,x'"),
        ],
    )
    def test_bad_list_flag_is_usage_error(self, inputs, tmp_path, capsys, flag, value, message):
        run_a, _, alignment, _ = inputs
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--reduction", "truncate", flag, value, "--output", str(out),
            ]
        )
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("geometries: [vertical-linear\n", "cannot parse config {config}: "),
            ("- vertical-linear\n", "config {config} must be a mapping"),
        ],
        ids=["yaml-syntax", "yaml-list"],
    )
    def test_unreadable_config_is_usage_error(self, inputs, tmp_path, capsys, text, message):
        config = tmp_path / "sweep.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["measure", "--config", str(config)]) == 1
        assert f"error: {message.format(config=config)}" in capsys.readouterr().err

    def test_empty_config_is_no_config(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        config = tmp_path / "sweep.yaml"
        config.write_text("", encoding="utf-8")
        args = [
            "measure", "--run", str(run_a), "--alignment", str(alignment),
            "--geometry", "vertical-linear",
        ]
        assert main([*args, "--config", str(config), "--output", str(tmp_path / "a.csv")]) == 0
        assert main([*args, "--output", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_config_byte_is_config_error_naming_its_line(
        self, inputs, tmp_path, capsys, newline
    ):
        config = tmp_path / "sweep.yaml"
        config.write_bytes(newline.encode().join([b"models: [geometric]", b"# caf\xe9", b""]))
        assert main(["measure", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot parse config {config}:2: byte 0xe9 is not UTF-8" in err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("alphas: [0.3, fast]", "bad value for config key alphas: [0.3, 'fast']"),
            ("jobs: [2]", "bad value for config key jobs: [2]"),
        ],
    )
    def test_mistyped_config_value_is_config_error(self, inputs, tmp_path, capsys, line, message):
        config = tmp_path / "sweep.yaml"
        config.write_text(line + "\n", encoding="utf-8")
        assert main(["measure", "--config", str(config)]) == 1
        assert message in capsys.readouterr().err

    def test_zero_jobs_is_config_error(self, inputs, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(self.base_args(inputs, out, ("--jobs", "0"))) == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_column_size_is_config_error_before_parsing(self, inputs, tmp_path, capsys):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--reduction", "truncate"))
        args[args.index("--columns") + 1] = "0,3"
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        args[args.index("--alignment") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 1
        assert "column sizes must be at least 1, got [0]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_model_value_is_config_error_before_parsing(self, inputs, tmp_path, capsys):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--alpha", "1.5"))
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        args[args.index("--alignment") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 1
        assert "alpha must be in (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_bare_flags_give_the_default_axes(self):
        args = build_parser().parse_args(["measure"])
        assert _build_sweep_config(args) == SweepConfig()

    def test_metric_error_names_system_request_plan_and_spec(self, tmp_path, capsys):
        run = tmp_path / "a.run"
        run.write_text(
            "q1 0 d1 0 2.0 sysA\nq1 0 d2 1 1.0 sysA\nq2 0 dX 0 1.0 sysA\n",
            encoding="utf-8",
        )
        alignment = tmp_path / "align.tsv"
        alignment.write_text("d1\tA\t1.0\nd2\tB\t1.0\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--exclude-unknown",
                "--output", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: system 'sysA', request 'q2', plan vertical-linear, "
            "spec geometric/none alpha=0.5 gamma=0.5 beta=1.9: "
            "undefined exposure: no group received any attention\n"
        )
        assert not out.exists()

    def test_metric_error_names_the_first_failing_request(self, tmp_path, capsys):
        """q1 fails only under the truncated plan and q2 under every plan: the
        error names q1, the first request in request-major order, not q2,
        which fails first in plan order."""
        run = tmp_path / "a.run"
        run.write_text(
            "q1 0 dX 0 4.0 s\nq1 0 d1 1 3.0 s\nq1 0 dY 2 2.0 s\nq1 0 d2 3 1.0 s\n"
            "q2 0 dZ 0 1.0 s\n",
            encoding="utf-8",
        )
        alignment = tmp_path / "align.tsv"
        alignment.write_text("d0\tA\t1\nd1\tB\t1\nd2\tA\t1\nd3\tB\t1\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run), "--alignment", str(alignment),
                "--geometry", "wrapped-grid:2", "--reduction", "truncate",
                "--columns", "1", "--base-columns", "2", "--exclude-unknown",
                "--output", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: system 's', request 'q1', plan wrapped-grid:1 (truncate from 2), "
            "spec geometric/none alpha=0.5 gamma=0.5 beta=1.9: "
            "undefined exposure: no group received any attention\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_is_config_error_before_parsing(
        self, inputs, tmp_path, capsys, beta
    ):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--adjust", "slow-decay", "--beta", beta))
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        args[args.index("--alignment") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 1
        assert f"beta must be finite and >= 1, got {beta}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, message",
        [
            ("fixed", "fixed target needs a path: fixed:<path>"),
            ("catalog:whatever", "target estimator 'catalog' takes no suffix"),
            ("retrieved:", "target estimator 'retrieved' takes no suffix"),
        ],
    )
    def test_bad_target_token_is_config_error_before_parsing(
        self, inputs, tmp_path, capsys, target, message
    ):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, ("--target", target))
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        args[args.index("--alignment") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grade_is_parse_error(self, inputs, tmp_path, capsys):
        _, _, _, qrels = inputs
        lineno = len(qrels.read_text().splitlines()) + 1
        with open(qrels, "a", encoding="utf-8") as handle:
            handle.write("q0 0 d1 nan\n")
        out = tmp_path / "res.csv"
        args = self.base_args(
            inputs, out, ("--model", "cascade", "--qrels", str(qrels))
        )
        assert main(args) == 2
        assert f"{qrels}:{lineno}: non-finite relevance grade" in capsys.readouterr().err

    def test_non_finite_alignment_weight_is_parse_error(self, inputs, tmp_path, capsys):
        _, _, alignment, _ = inputs
        lineno = len(alignment.read_text().splitlines()) + 1
        with open(alignment, "a", encoding="utf-8") as handle:
            handle.write("d0\tA\tinf\n")
        out = tmp_path / "res.csv"
        assert main(self.base_args(inputs, out)) == 2
        assert f"{alignment}:{lineno}: non-finite membership weight" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("which", ["run", "qrels", "alignment", "target"])
    def test_undecodable_byte_is_parse_error_naming_its_line(
        self, inputs, tmp_path, capsys, which, newline
    ):
        run_a, _, alignment, qrels = inputs
        target = tmp_path / "target.txt"
        target.write_text("A 0.5\nB 0.5\n", encoding="utf-8")
        path = {"run": run_a, "qrels": qrels, "alignment": alignment, "target": target}[which]
        lines = path.read_bytes().splitlines()
        path.write_bytes(newline.encode().join([lines[0], b"# caf\xe9", *lines[1:]]))
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--qrels", str(qrels), "--geometry", "vertical-linear",
                "--target", f"fixed:{target}", "--output", str(out),
            ]
        )
        assert code == 2
        assert f"error: {path}:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,expected_rows",
        [
            ("configs/layout-comparison.yaml", 2 * 2 * 6 * 2),
            ("configs/column-reduction.yaml", 2 * 12 * 4 * 2),
        ],
    )
    def test_shipped_presets_run_unchanged(self, inputs, tmp_path, preset, expected_rows):
        """The bundled sweep configs need nothing but input paths."""
        from pathlib import Path

        preset = str(Path(__file__).resolve().parent.parent / preset)
        run_a, run_b, alignment, qrels = inputs
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--config", preset,
                "--run", str(run_a), "--run", str(run_b),
                "--alignment", str(alignment), "--qrels", str(qrels),
                "--output", str(out),
            ]
        )
        assert code == 0
        assert len(read_results(out)) == expected_rows

    def test_fixed_target_from_file(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        target = tmp_path / "target.txt"
        target.write_text("A 0.8\nB 0.2\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--target", f"fixed:{target}",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert len(read_results(out)) == 1

    def test_fixed_target_bad_sum_fails(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        target = tmp_path / "target.txt"
        target.write_text("A 0.8\nB 0.8\n", encoding="utf-8")
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--target", f"fixed:{target}",
                "--output", str(tmp_path / "res.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "text,lineno",
        [("A nan\nB 0.2\n", 1), ("A 0.8\nB inf\n", 2), ("# note\nA -0.2\nB 1.2\n", 2)],
    )
    def test_bad_fixed_target_weight_is_parse_error(self, inputs, tmp_path, capsys, text, lineno):
        run_a, _, alignment, _ = inputs
        target = tmp_path / "target.txt"
        target.write_text(text, encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--target", f"fixed:{target}",
                "--output", str(out),
            ]
        )
        assert code == 2
        assert f"error: {target}:{lineno}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,lineno,message",
        [
            ("A 1 2\n", 1, "expected 'group weight', got 'A 1 2'"),
            ("A 0.5\nZ 0.5\n", 2, "group 'Z' not in the alignment schema"),
            ("A 0.5\nA 0.5\n", 2, "duplicate group 'A'"),
            ("A x\n", 1, "weight 'x' is not a number"),
        ],
        ids=["three-fields", "unknown-group", "repeated-group", "bad-weight"],
    )
    def test_malformed_fixed_target_is_parse_error(
        self, inputs, tmp_path, capsys, text, lineno, message
    ):
        run_a, _, alignment, _ = inputs
        target = tmp_path / "target.txt"
        target.write_text(text, encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--target", f"fixed:{target}",
                "--output", str(out),
            ]
        )
        assert code == 2
        assert f"error: {target}:{lineno}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,axis",
        [
            ("--model", "bases"),
            ("--adjust", "adjustments"),
            ("--alpha", "alphas"),
            ("--gamma", "gammas"),
            ("--beta", "betas"),
        ],
    )
    def test_empty_model_axis_flag_is_config_error_before_parsing(
        self, inputs, tmp_path, capsys, flag, axis
    ):
        out = tmp_path / "res.csv"
        args = self.base_args(inputs, out, (flag, ""))
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        args[args.index("--alignment") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 1
        assert axis in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,axis", [("models", "bases"), ("alphas", "alphas")])
    def test_empty_model_axis_key_is_config_error(self, inputs, tmp_path, capsys, key, axis):
        run_a, _, alignment, _ = inputs
        out = tmp_path / "res.csv"
        config = tmp_path / "sweep.yaml"
        config.write_text(f"{key}: []\ngeometries: [vertical-linear]\n", encoding="utf-8")
        code = main(
            [
                "measure", "--config", str(config), "--run", str(run_a),
                "--alignment", str(alignment), "--output", str(out),
            ]
        )
        assert code == 1
        assert axis in capsys.readouterr().err
        assert not out.exists()

    def test_retrieved_target_per_request(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--target", "retrieved",
                "--output", str(out),
            ]
        )
        assert code == 0

    def test_signed_delta_with_protected_group(self, inputs, tmp_path):
        # two-group shares mirror exactly once the unknown mass is dropped
        run_a, _, alignment, _ = inputs
        for protected in ("A", "B"):
            out = tmp_path / f"res_{protected}.csv"
            code = main(
                [
                    "measure", "--run", str(run_a), "--alignment", str(alignment),
                    "--geometry", "vertical-linear", "--delta", "signed",
                    "--protected", protected, "--exclude-unknown",
                    "--output", str(out),
                ]
            )
            assert code == 0
        a = read_results(tmp_path / "res_A.csv")[0].value
        b = read_results(tmp_path / "res_B.csv")[0].value
        assert a == pytest.approx(-b, abs=1e-12)

    @pytest.mark.parametrize(
        "extra,message",
        [
            (
                ("--target", "fixed:{target}", "--exclude-unknown"),
                "target has no mass outside the unknown group",
            ),
            (("--delta", "signed", "--protected", "Z"), "protected group 'Z' not in schema"),
        ],
        ids=["unknown-only-target", "unknown-protected-group"],
    )
    def test_sweep_wide_metric_error_exits_1(self, inputs, tmp_path, capsys, extra, message):
        # Both are sweep-wide faults, reported as the first request's failure;
        # only the message and the exit code are pinned, not that prefix.
        run_a, _, alignment, _ = inputs
        target = tmp_path / "target.txt"
        target.write_text("unknown 1.0\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear", "--output", str(out),
                *(arg.format(target=target) for arg in extra),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": {message}\n")
        assert not out.exists()

    def test_exclude_unknown_changes_scores(self, inputs, tmp_path):
        run_a, _, alignment, _ = inputs
        values = {}
        for flag, extra in (("with", ()), ("without", ("--exclude-unknown",))):
            out = tmp_path / f"res_{flag}.csv"
            code = main(
                [
                    "measure", "--run", str(run_a), "--alignment", str(alignment),
                    "--geometry", "vertical-linear", "--output", str(out), *extra,
                ]
            )
            assert code == 0
            values[flag] = read_results(out)[0].value
        # some items are unlabeled, so dropping the unknown mass moves the score
        assert values["with"] != values["without"]

    def test_geometry_rows_record_layout_fields(self, inputs, tmp_path):
        run_a, run_b, alignment, _ = inputs
        out = tmp_path / "res.csv"
        code = main(
            [
                "measure", "--run", str(run_a), "--alignment", str(alignment),
                "--geometry", "vertical-linear,horizontal-linear,wrapped-grid:5",
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = read_results(out)
        seen = {(row.geometry, row.columns, row.reduction) for row in rows}
        assert seen == {
            ("vertical-linear", 1, "none"),
            ("horizontal-linear", 0, "none"),
            ("wrapped-grid", 5, "none"),
        }


class TestRerankCommand:
    def test_single_group_preserves_order(self, tmp_path):
        run = tmp_path / "in.run"
        lines = [f"q1 0 d{i} {i} {10 - i}.0 sysA" for i in range(6)]
        run.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "align.tsv").write_text(
            "\n".join(f"d{i}\tA\t1.0" for i in range(6)) + "\n", encoding="utf-8"
        )
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(run), "--alignment", str(tmp_path / "align.tsv"),
                "--output", str(out),
            ]
        )
        assert code == 0
        assert parse_run(out).rankings["q1"][0].items == tuple(f"d{i}" for i in range(6))

    def test_improves_fairness_and_round_trips(self, tmp_path):
        # one group hoards the top of the list
        run = tmp_path / "in.run"
        docs = [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)]
        lines = [f"q1 0 {d} {i} {8 - i}.0 sysA" for i, d in enumerate(docs)]
        run.write_text("\n".join(lines) + "\n", encoding="utf-8")
        align = tmp_path / "align.tsv"
        align.write_text(
            "\n".join(f"{d}\t{d[0].upper()}\t1.0" for d in docs) + "\n", encoding="utf-8"
        )
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(run), "--alignment", str(align),
                "--output", str(out), "--target", "uniform",
            ]
        )
        assert code == 0
        table = make_table({d: d[0].upper() for d in docs})
        target = population_estimator(PopulationEstimator("uniform"), table)

        def score(ranking):
            grid = wrap(ranking, 1)
            weights = attention(grid, None, BrowsingModelSpec())
            expo = group_exposure(weights, table.matrix(grid.items))
            return awrf(expo, target, DistanceSpec("l1"), table.schema)

        before = score(parse_run(run).rankings["q1"][0])
        after = score(parse_run(out).rankings["q1"][0])
        assert after < before

    def test_retrieved_target_is_each_lists_own(self, tmp_path):
        """Every list is re-ranked toward the mean membership of its own
        documents."""
        rng = np.random.default_rng(11)
        lines = []
        for q in range(2):
            for s in range(2):
                docs = rng.choice(12, size=8, replace=False)
                lines += [f"q{q} {s} d{d} {r} {8 - r}.0 sysA" for r, d in enumerate(docs)]
        run = tmp_path / "in.run"
        run.write_text("\n".join(lines) + "\n", encoding="utf-8")
        alignment = tmp_path / "align.tsv"
        rows = [f"d{d}\t{'ABC'[d % 3]}\t1.0" for d in range(12) if d % 5]
        alignment.write_text("\n".join([*rows, "d5\tA\t0.5", "d5\tB\t0.5"]) + "\n", encoding="utf-8")
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(run), "--alignment", str(alignment),
                "--output", str(out), "--target", "retrieved",
            ]
        )
        assert code == 0
        table = parse_alignment(alignment)
        given, got = parse_run(run), parse_run(out)
        assert got.system == "sysA"
        assert sorted(got.rankings) == sorted(given.rankings)
        for request, rankings in given.rankings.items():
            expected = [
                greedy_rerank(
                    ranking,
                    table,
                    RerankSpec(
                        population_estimator(PopulationEstimator("retrieved"), table, ranking.items)
                    ),
                )
                for ranking in rankings
            ]
            assert list(got.rankings[request]) == expected
        assert got.rankings != given.rankings

    def test_nan_score_is_an_error_naming_its_list(self, tmp_path, capsys):
        """A nan score has no place in the score order, so no list is
        re-ranked; measure still reads the run."""
        scores = {"dA": "1", "dB": "nan", "dC": "3", "dD": "2", "dE": "5"}
        lines = ["q1 0 dA 0 1 sysA"]
        for rank, (doc, score) in enumerate(scores.items()):
            lines.append(f"q2 1 {doc} {rank} {score} sysA")
        run = tmp_path / "in.run"
        run.write_text("\n".join(lines) + "\n", encoding="utf-8")
        align = tmp_path / "align.tsv"
        align.write_text("".join(f"{doc}\tA\t1.0\n" for doc in scores), encoding="utf-8")
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(run), "--alignment", str(align),
                "--output", str(out), "--pool", "1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cannot re-rank request 'q2' sample 1: a score is nan" in err
        assert not out.exists()
        measured = ["measure", "--run", str(run), "--alignment", str(align)]
        results = ["--geometry", "vertical-linear", "--output", str(tmp_path / "results.csv")]
        assert main([*measured, *results]) == 0

    @pytest.mark.parametrize("pool", ["0", "-1"])
    def test_pool_below_one_is_usage_error(self, tmp_path, capsys, pool):
        run = tmp_path / "in.run"
        run.write_text("q1 0 d0 0 2.0 sysA\nq1 0 d1 1 1.0 sysA\n", encoding="utf-8")
        align = tmp_path / "align.tsv"
        align.write_text("d0\tA\t1.0\nd1\tB\t1.0\n", encoding="utf-8")
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(run), "--alignment", str(align),
                "--output", str(out), "--pool", pool,
            ]
        )
        assert code == 1
        assert f"error: re-rank pool must be at least 1, got {pool}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "target, message",
        [
            ("fixed", "fixed target needs a path: fixed:<path>"),
            ("uniform:junk", "target estimator 'uniform' takes no suffix"),
            ("", "unknown target estimator ''"),
        ],
    )
    def test_bad_target_token_is_usage_error_before_parsing(
        self, tmp_path, capsys, target, message
    ):
        out = tmp_path / "out.run"
        code = main(
            [
                "rerank", "--run", str(tmp_path / "missing.run"),
                "--alignment", str(tmp_path / "missing.tsv"),
                "--output", str(out), "--target", target,
            ]
        )
        # a missing input would exit 2, so exit 1 shows nothing was parsed
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCompareCommand:
    def rows_for(self, values_by_config):
        rows = []
        for (geometry, columns), values in values_by_config.items():
            for system, value in values.items():
                rows.append(
                    ResultsRow(
                        system=system,
                        request="ALL",
                        geometry=geometry,
                        columns=columns,
                        reduction="none",
                        base="geometric",
                        adjustment="none",
                        alpha=0.5,
                        gamma=0.5,
                        beta=1.9,
                        metric="awrf",
                        value=value,
                    )
                )
        return rows

    def run_compare(self, tmp_path, capsys, values_by_config, extra=()):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for(values_by_config), path)
        assert main(["compare", "--results", str(path), *extra]) == 0
        return capsys.readouterr().out

    def test_identical_orderings(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path,
            capsys,
            {
                ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2, "s3": 0.3, "s4": 0.4},
                ("wrapped-grid", 5): {"s1": 0.15, "s2": 0.22, "s3": 0.31, "s4": 0.44},
            },
        )
        assert "tau_b=1 " in out

    def test_reversed_orderings(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path,
            capsys,
            {
                ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2, "s3": 0.3, "s4": 0.4},
                ("wrapped-grid", 5): {"s1": 0.4, "s2": 0.3, "s3": 0.2, "s4": 0.1},
            },
        )
        assert "tau_b=-1 " in out

    def test_adjacent_swap(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path,
            capsys,
            {
                ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2, "s3": 0.3, "s4": 0.4},
                ("wrapped-grid", 5): {"s1": 0.2, "s2": 0.1, "s3": 0.3, "s4": 0.4},
            },
        )
        assert "tau_b=0.666667 " in out

    def test_single_system_not_comparable(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path,
            capsys,
            {
                ("vertical-linear", 1): {"s1": 0.1},
                ("wrapped-grid", 5): {"s1": 0.2},
            },
        )
        assert "not comparable" in out

    def test_csv_report(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_rows(
            self.rows_for(
                {
                    ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2},
                    ("wrapped-grid", 5): {"s1": 0.2, "s2": 0.1},
                }
            ),
            path,
        )
        report = tmp_path / "report.csv"
        assert main(["compare", "--results", str(path), "--output", str(report)]) == 0
        text = report.read_text()
        assert text.startswith("metric,config_a,config_b,n_systems,tau_b")
        assert "-1" in text

    def test_per_system_deltas(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path,
            capsys,
            {
                ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2},
                ("wrapped-grid", 5): {"s1": 0.3, "s2": 0.25},
            },
            extra=("--per-system",),
        )
        assert "s1: +0.2" in out

    def test_missing_results_file(self, tmp_path):
        assert main(["compare", "--results", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_grouping_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for({("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}}), path)
        assert main(["compare", "--results", str(path), "--by", "foo"]) == 1
        assert "error: unknown grouping key 'foo'" in capsys.readouterr().err

    def test_one_configuration_has_nothing_to_compare(self, tmp_path, capsys):
        out = self.run_compare(
            tmp_path, capsys, {("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}}
        )
        assert out == "nothing to compare (need aggregate rows for >= 2 configurations)\n"

    def test_one_configuration_still_writes_the_report(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for({("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}}), path)
        report = tmp_path / "report.csv"
        assert main(["compare", "--results", str(path), "--output", str(report)]) == 0
        assert capsys.readouterr().out == (
            "nothing to compare (need aggregate rows for >= 2 configurations)\n"
            f"wrote comparison CSV to {report}\n"
        )
        assert report.read_text(encoding="utf-8") == (
            "metric,config_a,config_b,n_systems,tau_b,mean_delta,max_abs_delta\n"
        )

    def test_per_request_rows_do_not_change_the_report(self, tmp_path, capsys):
        """``compare`` reads only the aggregate rows: a ``--per-request``
        CSV gives the same report as the same sweep without it."""
        rng = np.random.default_rng(11)
        runs = [
            write_run_file(
                tmp_path / f"{system}.run", system, requests=4, n_items=9,
                shuffle=lambda docs: rng.shuffle(docs),
            )
            for system in ("sysA", "sysB", "sysC")
        ]
        alignment = write_alignment_file(tmp_path / "align.tsv", 9, unlabeled_every=4)
        qrels = write_qrels_file(tmp_path / "qrels.txt", 4, 9)
        report = tmp_path / "report.csv"
        got = {}
        for extra in ((), ("--per-request",)):
            results = tmp_path / f"results{len(extra)}.csv"
            args = [
                "measure", *(arg for run in runs for arg in ("--run", str(run))),
                "--alignment", str(alignment), "--qrels", str(qrels),
                "--geometry", "vertical-linear,horizontal-linear,wrapped-grid:3",
                "--adjust", "none,row-skip", "--metrics", "awrf,eel",
                "--output", str(results), *extra,
            ]
            assert main(args) == 0
            capsys.readouterr()
            requests = {row.request for row in read_results(results)}
            assert requests == ({"ALL", "q0", "q1", "q2", "q3"} if extra else {"ALL"})
            cmd = ["compare", "--results", str(results), "--per-system", "--output", str(report)]
            assert main(cmd) == 0
            got[extra] = (capsys.readouterr().out, report.read_bytes())
        assert "tau_b=" in got[()][0]
        assert got[("--per-request",)] == got[()]

    def test_short_record_is_parse_error_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for({("vertical-linear", 1): {"s1": 0.1}}), path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\na,b,c,d\n")
        assert main(["compare", "--results", str(path)]) == 2
        assert f"error: {path}:4: expected 12 fields, got 4" in capsys.readouterr().err

    def test_repeated_aggregate_is_metric_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        rows = self.rows_for({("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}})
        write_rows([*rows, rows[0]], path)
        assert main(["compare", "--results", str(path)]) == 1
        err = capsys.readouterr().err
        assert "system 's1' has two awrf values for configuration geometry=vertical-linear," in err

    def test_runs_without_scipy(self, tmp_path):
        """tau-b needs numpy alone: ``compare`` runs in a fresh process
        where scipy cannot be imported."""
        path = tmp_path / "results.csv"
        write_rows(
            self.rows_for(
                {
                    ("vertical-linear", 1): {"s1": 0.1, "s2": 0.2, "s3": 0.3, "s4": 0.4},
                    ("wrapped-grid", 5): {"s1": 0.2, "s2": 0.1, "s3": 0.3, "s4": 0.4},
                }
            ),
            path,
        )
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from gridfair.cli import main\n"
            f"assert main(['compare', '--results', {str(path)!r}]) == 0\n"
        )
        src = str(Path(gridfair.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "tau_b=0.666667 " in done.stdout

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_is_parse_error_naming_its_line(self, tmp_path, capsys, newline):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for({("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}}), path)
        lines = path.read_bytes().splitlines()
        path.write_bytes(newline.encode().join([*lines[:2], lines[2].replace(b"s2", b"caf\xe9")]))
        assert main(["compare", "--results", str(path)]) == 2
        assert f"error: {path}:3: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    def test_non_finite_value_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        write_rows(self.rows_for({("vertical-linear", 1): {"s1": 0.1, "s2": 0.2}}), path)
        path.write_text(path.read_text().replace(",0.2\n", ",nan\n"), encoding="utf-8")
        assert main(["compare", "--results", str(path)]) == 2
        assert f"{path}:3: non-finite metric value" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1
