"""End-to-end command-line runs, in process through ``gapboot.cli.main``."""
from __future__ import annotations

import dataclasses
import inspect
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gapboot import METHODS, ModelSpec, StudyConfig, surrogate_od_dataset
from gapboot import study as study_module
from gapboot.cli import _build_parser, main
from gapboot.od import ODFit, read_od_csv
from gapboot.resample import BootstrapConfig


def run(*argv: str) -> int:
    return main(list(argv))


class TestUsage:
    def test_no_subcommand_prints_usage(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert run("simulate", "--bogus", "--out", str(tmp_path / "r.csv")) == 1
        assert "bogus" in capsys.readouterr().err

    def test_n_without_p(self, tmp_path, capsys):
        assert run("simulate", "--n", "60", "--out", str(tmp_path / "r.csv")) == 1
        assert "--n and --p" in capsys.readouterr().err

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, config",
        [
            ([], {"cov_kind": "foo"}), (["--gap-q", "-1"], {}), (["--replicates", "1"], {}),
            ([], {"runs": 2.5}), ([], {"sizes": [[200]]}), ([], {"sizes": 200}),
            ([], {"models": "ar2"}), ([], {"dists": "normal"}), ([], {"methods": "gb1"}),
        ],
        ids=["cov_kind", "gap_q", "replicates", "runs", "sizes-pair", "sizes-int",
             "models-str", "dists-str", "methods-str"],
    )
    def test_bad_study_field_fails_before_any_cell(self, tmp_path, capsys, monkeypatch, extra, config):
        def no_truth(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(study_module, "monte_carlo_true_se", no_truth)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"models": ["mar"], "sizes": [[60, 3]], "truth_runs": 100, **config}))
        out = tmp_path / "r.csv"
        assert run("simulate", "--config", str(cfg), *extra, "--out", str(out)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            run("--version")
        assert "gapboot" in capsys.readouterr().out


def test_every_generator_knob_has_a_caller():
    # a model setting no study field sets, or a surrogate keyword no
    # `gapboot od` flag sets, is a settable value without a caller
    study_fields = {f.name for f in dataclasses.fields(StudyConfig)}
    set_by = {"family": "models", "innovation": "dists", "n": "sizes", "p": "sizes"}
    for f in dataclasses.fields(ModelSpec):
        assert set_by.get(f.name, f.name) in study_fields, f.name
    od_dests = vars(_build_parser().parse_args(["od", "--surrogate", "--out", "x.csv"]))
    for name in inspect.signature(surrogate_od_dataset).parameters:
        assert name in od_dests, name


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert run("check") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok ") >= 6


class TestSimulate:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "report.csv"
        jout = tmp_path / "report.json"
        code = run(
            "simulate", "--model", "ma2", "--dist", "normal",
            "--n", "60", "--p", "3", "--methods", "gb1,naive",
            "--runs", "3", "--truth-runs", "100", "--replicates", "16",
            "--seed", "7", "--out", str(out), "--json", str(jout),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,dist,n,p,method,true_se,bias,mse,runs"
        assert len(lines) == 3  # header + one row per method
        assert lines[1].startswith("ma2,normal,60,3,gb1,")
        payload = json.loads(jout.read_text())
        assert payload["config"]["runs"] == 3
        assert len(payload["cells"]) == 1
        assert payload["cells"][0]["error"] is None

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "models": ["ma2"], "dists": ["exp"], "sizes": [[60, 3]],
            "methods": ["naive"], "runs": 5, "truth_runs": 100, "replicates": 8,
        }))
        out = tmp_path / "r.csv"
        assert run("simulate", "--config", str(cfg), "--runs", "2", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",2")  # the flag wins over the file

    @pytest.mark.parametrize(
        "methods, code", [(["gb1", "naive"], 0), (["gb2"], 2), (["ss"], 2), (["bb"], 2)]
    )
    def test_window_length_only_for_windowed_methods(self, tmp_path, capsys, methods, code):
        # m = 6 columns are too few for an automatic window length, which
        # only gb2, ss and bb use
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "models": ["ma2"], "sizes": [[30, 5]], "methods": methods,
            "runs": 2, "truth_runs": 100, "replicates": 8,
        }))
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == code
        failure = "need at least 8 columns for an automatic window length, got 6"
        assert (failure in capsys.readouterr().err) == (code == 2)

    def test_byte_identical_reruns(self, tmp_path):
        argv = (
            "simulate", "--model", "ma2", "--dist", "exp", "--n", "60", "--p", "3",
            "--methods", "naive", "--runs", "2", "--truth-runs", "100",
            "--replicates", "8", "--seed", "3",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


#: What the config fuzz puts in place of one field.
CONFIG_FUZZ_VALUES = (0, -1, 2, 3.5, True, "x", "", None, [], [1], [[1, 2]], ["ar2"], {})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(StudyConfig)])
def test_config_fuzz_never_raises(tmp_path, capsys, name):
    # each field of a small valid config, replaced by each fuzz value,
    # runs, is a configuration error, or fails its cell; none escapes
    # as a traceback
    base = {
        "models": ["ma2"], "sizes": [[40, 4]], "methods": list(METHODS),
        "runs": 1, "truth_runs": 100, "replicates": 2, "seed": 5,
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
    for value in CONFIG_FUZZ_VALUES:
        cfg.write_text(json.dumps({**base, name: value}))
        code = run("simulate", "--config", str(cfg), "--out", str(out))
        err = capsys.readouterr().err
        if value == [] and name in ("models", "dists", "sizes", "methods"):
            # an empty grid or method list would run nothing and exit 0
            assert code == 1 and f"{name} must not be empty" in err, f"{name}=[]: exit {code}"
            continue
        ok = {0: True, 1: "configuration error" in err,
              2: re.search(r"^cell \(.*\) failed: ", err, re.M) is not None}
        assert ok.get(code), f"{name}={value!r}: exit {code}: {err}"


class TestOd:
    def test_surrogate_run(self, tmp_path):
        out = tmp_path / "split.csv"
        dump = tmp_path / "data.csv"
        code = run(
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "100", "--seed", "2",
            "--out", str(out), "--dump-data", str(dump),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,estimate,std_gb1,std_gb2"
        assert len(lines) == 22
        names = [line.split(",")[0] for line in lines[1:]]
        assert names[0] == "p11" and names[-1] == "p66"
        table = np.array([[float(x) for x in line.split(",")[1:]] for line in lines[1:]])
        assert table.shape == (21, 3)
        assert (table[:, 1] > 0).all() and (table[:, 2] > 0).all()
        dataset = read_od_csv(dump)
        assert dataset.days == 30 and dataset.slots == 4

    def test_deterministic_bytes(self, tmp_path):
        argv = (
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "100", "--seed", "11",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reads_back_dumped_data(self, tmp_path):
        dump = tmp_path / "data.csv"
        first = tmp_path / "a.csv"
        assert run(
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "100", "--seed", "2",
            "--out", str(first), "--dump-data", str(dump),
        ) == 0
        second = tmp_path / "b.csv"
        assert run(
            "od", "--data", str(dump), "--replicates", "100", "--seed", "2",
            "--out", str(second),
        ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_missing_data_file(self, tmp_path, capsys):
        code = run("od", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_block_length(self, tmp_path, capsys, slot_draws):
        code = run(
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "50", "--block-len", "30", "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "window length" in capsys.readouterr().err
        assert slot_draws == []

    @pytest.mark.parametrize("ridge", ["-0.5", "nan", "inf"])
    def test_bad_ridge(self, tmp_path, capsys, ridge):
        out = tmp_path / "o.csv"
        code = run(
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "50", f"--ridge={ridge}", "--out", str(out),
        )
        assert code == 1
        assert "ridge" in capsys.readouterr().err
        assert not out.exists()

    def test_draws_each_slot_stream_once(self, tmp_path, slot_draws):
        assert run(
            "od", "--surrogate", "--days", "30", "--slots", "4",
            "--replicates", "50", "--out", str(tmp_path / "o.csv"),
        ) == 0
        assert slot_draws == [1, 2, 3, 4]

    def test_columns_equal_library_standard_errors(self, tmp_path):
        out = tmp_path / "split.csv"
        dump = tmp_path / "data.csv"
        assert run(
            "od", "--surrogate", "--days", "30", "--slots", "4", "--replicates", "100",
            "--seed", "2", "--block-len", "6", "--ridge", "0.5",
            "--out", str(out), "--dump-data", str(dump),
        ) == 0
        table = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in out.read_text().splitlines()[1:]]
        )
        dataset = read_od_csv(dump)
        config = BootstrapConfig(replicates=100, seed=2)
        assert_array_equal(table[:, 1], ODFit(dataset, config, ridge=0.5).gb1_standard_errors())
        assert_array_equal(table[:, 2], ODFit(dataset, config, ridge=0.5).gb2_standard_errors(6))
