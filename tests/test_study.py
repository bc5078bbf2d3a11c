import csv
import json
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import gapboot._rand as rand_module
import gapboot.resample as resample_module
from gapboot import models as models_module
from gapboot import study as study_module
from gapboot import (
    METHODS,
    ConfigError,
    EstimatorSpec,
    StudyConfig,
    run_study,
    write_study_csv,
    write_study_json,
)


def tiny_config(**overrides):
    base = dict(
        models=("ar2",),
        dists=("normal",),
        sizes=((200, 5),),
        methods=METHODS,
        runs=20,
        truth_runs=100,
        replicates=200,
        seed=42,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyConfig:
    def test_dist_alias(self):
        assert tiny_config(dists=("exp",)).dists == ("centered_exponential",)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(models=("arch",)),
            dict(dists=("laplace",)),
            dict(methods=("gb3",)),
            dict(runs=0),
            dict(truth_runs=50),
            dict(replicates=1),
            dict(block_length=1),
            # integer fields reject non-integers instead of failing later
            dict(runs=2.5),
            dict(runs="3"),
            dict(runs=True),
            dict(truth_runs=150.5),
            dict(replicates=10.5),
            dict(gap_q=1.5),
            dict(seed=1.5),
            dict(sizes=((200.5, 5),)),
            # list fields take lists: no pair unpacking, no string split
            dict(sizes=[[200]]),
            dict(sizes=200),
            dict(models="ar2"),
            dict(dists="normal"),
            dict(methods="gb1"),
            dict(dists=[["normal"]]),
            # an empty list would run nothing and exit 0
            dict(models=[]),
            dict(dists=[]),
            dict(sizes=[]),
            dict(methods=[]),
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    @pytest.mark.parametrize("name", ["models", "dists", "methods", "sizes"])
    def test_string_for_a_list_names_the_field(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be a list"):
            tiny_config(**{name: "ar2"})

    @pytest.mark.parametrize("name", ["models", "dists", "methods", "sizes"])
    def test_empty_list_names_the_field(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must not be empty$"):
            tiny_config(**{name: []})


class TestRunStudy:
    def test_shapes_and_positivity(self):
        config = tiny_config()
        result = run_study(config)
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.error is None
        assert cell.true_se > 0
        for method in METHODS:
            est = cell.estimates[method]
            assert est.shape == (config.runs,)
            assert (est > 0).all()
            assert np.isfinite(cell.bias(method))
            assert cell.mse(method) >= 0

    def test_deterministic_and_thread_invariant(self, tmp_path, monkeypatch):
        # every pool on (3 workers, the row gate at 0) and off (one worker);
        # ``threads`` holds the threads the estimator runs on
        threads = set()
        mean = study_module.mean_estimator()

        def evaluate(stack):
            threads.add(threading.current_thread())
            return mean.evaluate(stack)

        recording = EstimatorSpec(mean.name, mean.dim, evaluate)
        monkeypatch.setattr(study_module, "mean_estimator", lambda: recording)
        monkeypatch.setattr(resample_module, "_MIN_THREAD_DRAWS", 0)
        config = tiny_config(runs=10)
        results = {}
        for on in (False, True):
            monkeypatch.setattr(rand_module, "_WORKERS", 3 if on else 1)
            threads.clear()
            results[on] = run_study(config)
            # the caller is one of the pool's threads
            assert threading.main_thread() in threads
            assert (len(threads) >= 2) == on
        first, threaded = results[False], results[True]
        second = run_study(config)  # pools still on
        for method in METHODS:
            assert_array_equal(first.cells[0].estimates[method], second.cells[0].estimates[method])
            assert_array_equal(first.cells[0].estimates[method], threaded.cells[0].estimates[method])
        assert first.cells[0].true_se == second.cells[0].true_se

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_study_csv(first, a)
        write_study_csv(threaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truth_beside_inline_runs_is_thread_invariant(self, tmp_path, monkeypatch):
        # rows of 100 x 1000 indices: above the overlap gate, below the row
        # pool's, so the truth series go beside the runs; ``threads`` holds
        # the threads the estimator ran on, for truth series (whole n-step
        # series) and for the runs (rows and windows)
        config = tiny_config(sizes=((500, 5),), methods=("gb1", "gb2"), runs=3, replicates=1000)
        spec = study_module._model_for_cell(config, "ar2", "normal", 500, 5)
        assert study_module._overlap(config, spec)
        threads = {"truth": set(), "runs": set()}
        mean = study_module.mean_estimator()

        def evaluate(stack):
            threads["truth" if stack.shape[1] == 500 else "runs"].add(threading.current_thread())
            return mean.evaluate(stack)

        recording = EstimatorSpec(mean.name, mean.dim, evaluate)
        monkeypatch.setattr(study_module, "mean_estimator", lambda: recording)
        paths = {}
        for workers in (1, 3):
            monkeypatch.setattr(rand_module, "_WORKERS", workers)
            for seen in threads.values():
                seen.clear()
            result = run_study(config)
            paths[workers] = tmp_path / f"{workers}.csv"
            write_study_csv(result, paths[workers])
            assert threads["runs"] == {threading.main_thread()}
            assert bool(threads["truth"] - {threading.main_thread()}) == (workers > 1)
        assert paths[1].read_bytes() == paths[3].read_bytes()
        truth = models_module.monte_carlo_true_se(spec, mean, config.truth_runs, (config.seed, "truth", 0))
        assert result.cells[0].true_se == truth[0]

    def test_failed_cell_is_recorded(self, tmp_path):
        # 201 is not a multiple of 5, so the first cell fails while the
        # second still runs.
        result = run_study(tiny_config(runs=2, methods=("naive",), sizes=((201, 5), (200, 5))))
        bad, good = result.cells
        assert bad.error is not None
        assert "201" in bad.error
        assert good.error is None

        path = tmp_path / "out.csv"
        write_study_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 2  # header + the surviving cell
        assert rows[1][2] == "200"

        jpath = tmp_path / "out.json"
        write_study_json(result, jpath)
        payload = json.loads(jpath.read_text())
        assert payload["cells"][0]["error"] is not None
        assert payload["cells"][0]["true_se"] is None
        assert payload["cells"][1]["error"] is None


    def test_too_long_block_length_fails_before_the_truth(self, monkeypatch):
        series = []
        generate = models_module.generate_series
        monkeypatch.setattr(
            models_module, "generate_series", lambda *a, **k: series.append(1) or generate(*a, **k)
        )
        (cell,) = run_study(tiny_config(sizes=((40, 5),), methods=("bb",), block_length=100)).cells
        assert series == []
        assert cell.error == "window length 100 outside 2..7"

    def test_one_row_gb1_fails_before_the_truth(self, monkeypatch):
        series = []
        generate = models_module.generate_series
        monkeypatch.setattr(
            models_module, "generate_series", lambda *a, **k: series.append(1) or generate(*a, **k)
        )
        (cell,) = run_study(tiny_config(sizes=((200, 1),), methods=("gb1", "naive"))).cells
        assert series == []
        assert cell.error == "gap bootstrap I needs at least 2 rows, got 1"
        # without gb1 the one-row cell runs
        (cell,) = run_study(tiny_config(sizes=((200, 1),), methods=("naive",), runs=2)).cells
        assert cell.error is None and series


class TestReports:
    def test_csv_layout(self, tmp_path):
        config = tiny_config(runs=3, methods=("gb1", "gb2"))
        result = run_study(config)
        path = tmp_path / "study.csv"
        write_study_csv(result, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["model", "dist", "n", "p", "method", "true_se", "bias", "mse", "runs"]
        assert len(rows) == 1 + 2
        assert [r[4] for r in rows[1:]] == ["gb1", "gb2"]
        # Numeric fields round-trip through repr().
        assert float(rows[1][5]) == result.cells[0].true_se

    def test_json_layout(self, tmp_path):
        config = tiny_config(runs=3, methods=("gb1",))
        result = run_study(config)
        path = tmp_path / "study.json"
        write_study_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["config"]["seed"] == 42
        assert "threads" not in payload["config"]
        assert len(payload["config"]) == 11
        cell = payload["cells"][0]
        assert "runtime_ms" not in cell
        assert len(cell["methods"]["gb1"]["estimates"]) == 3

        write_study_json(result, path, include_timing=True)
        timed = json.loads(path.read_text())
        assert timed["cells"][0]["runtime_ms"] > 0

    def test_json_deterministic_bytes(self, tmp_path):
        config = tiny_config(runs=3, methods=("ss", "bb"))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_study_json(run_study(config), a)
        write_study_json(run_study(config), b)
        assert a.read_bytes() == b.read_bytes()
