import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gapboot import (
    METHODS,
    ConfigError,
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
            dict(threads=0),
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

    def test_deterministic_and_thread_invariant(self, tmp_path):
        config = tiny_config(runs=10)
        first = run_study(config)
        second = run_study(config)
        threaded = run_study(tiny_config(runs=10, threads=3))
        for method in METHODS:
            assert_array_equal(first.cells[0].estimates[method], second.cells[0].estimates[method])
            assert_array_equal(first.cells[0].estimates[method], threaded.cells[0].estimates[method])
        assert first.cells[0].true_se == second.cells[0].true_se

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_study_csv(first, a)
        write_study_csv(threaded, b)
        assert a.read_bytes() == b.read_bytes()

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
