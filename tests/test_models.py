import dataclasses
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gapboot import (
    ConfigError,
    DimensionError,
    ModelSpec,
    generate_series,
    mean_estimator,
    monte_carlo_true_se,
)
from gapboot.models import FAMILY_GAPS, _mma_coefficients, row_mean_spread

#: Per family: the resolved gap_q and mu of ``ModelSpec(family, 24, 4)``,
#: the SHA-256 of ``generate_series(spec, seed=3).values`` and the SHA-256
#: of every resolved field (``spec_digest``), recorded from the per-family
#: factories that ModelSpec replaced (``ar2_model(24, 4)`` and so on).
FAMILY_PINS = {
    "ar2": (300, 0.1, "9afd30b5aaf34398c78c5240be9e21ad3c690ec5773d09ba4faa40649bc20a07",
            "b0a3a305619f6314890505171a184b0966fa9a16ade1fd642555c13da75cdd32"),
    "ma2": (10, 0.1, "b7e3545f4b22bbbe5b507ceeeb222f33bbf5a78357307da180684902468c9c1f",
            "588c75ff6f0ffca21f4811746f636a314c002661f34306e820f632a6da54d39d"),
    "periodic": (0, 1.0, "b2a29fc240e68b9f75acf3173d51e300dd33ecddce59a6778467300c1ea798c5",
                 "e414ac92c889280d18fc27ca3efc42402335fd274aa855464d701e80b97febbb"),
    "mar": (60, 0.1, "114e3b2f13648fa1a0a5855db74d139a15bb33a0e831a2b8c6697fbc786b3e25",
            "b896465f2b7e98ad19b13f47b650beeafe4735f873a191275185724075257604"),
    "mma": (10, 0.1, "785f23e6ef44763cdcae78f4ac2a481f70863878510c9b24efa883bab11bb075",
            "1c04b4097486dffd396e382f0482539c4cf63e38963b3461bc3d3e44b8d0e46a"),
    "mperiodic": (0, 0.1, "a5f6e6389aeff1e2221ee22c187a0d00a079e8053ca1957073362782b745466e",
                  "4bfb4b602a03c94278bbb0adc717325393c8a0241ee31f378894a8ef02e14220"),
}


def spec_digest(spec):
    """SHA-256 of every ModelSpec field, numbers as Python floats and ints."""
    fields = {f.name: np.asarray(getattr(spec, f.name)).tolist() for f in dataclasses.fields(spec)}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("family", list(FAMILY_PINS))
def test_make_model_reproduces_family_pins(family):
    gap_q, mu, values_sha, fields_sha = FAMILY_PINS[family]
    spec = ModelSpec(family, 24, 4)
    assert (spec.gap_q, spec.mu) == (gap_q, mu)
    assert spec_digest(spec) == fields_sha
    values = generate_series(spec, seed=3).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == values_sha


class TestModelSpec:
    def test_family_defaults(self):
        assert ModelSpec("ar2", 200, 5).gap_q == FAMILY_GAPS["ar2"]
        assert ModelSpec("periodic", 200, 5).gap_q == 0
        assert ModelSpec("mar", 200, 5).gap_q == FAMILY_GAPS["mar"]

    def test_gap_override(self):
        assert ModelSpec("ar2", 200, 5, gap_q=0).gap_q == 0

    def test_dimensions(self):
        assert ModelSpec("ar2", 200, 5).d == 1
        assert ModelSpec("mar", 200, 5).d == 4
        assert ModelSpec("ar2", 200, 5).m == 40

    def test_indivisible_length(self):
        with pytest.raises(DimensionError):
            ModelSpec("ar2", 201, 5)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelSpec("arma", 100, 5)

    def test_unknown_innovation(self):
        with pytest.raises(ConfigError):
            ModelSpec("ar2", 100, 5, innovation="cauchy")

    def test_nonstationary_ar(self):
        with pytest.raises(ConfigError, match="stationary"):
            ModelSpec("ar2", 100, 5, ar=(1.2, 0.0))
        with pytest.raises(ConfigError, match="stationary"):
            ModelSpec("ar2", 100, 5, ar=(0.5, 0.5))


class TestGeneration:
    # the ids keep the names of the per-family factories ModelSpec replaced
    @pytest.mark.parametrize("family", list(FAMILY_GAPS), ids=lambda family: f"{family}_model")
    def test_shapes_and_determinism(self, family):
        spec = ModelSpec(family, 120, 4)
        a = generate_series(spec, seed=5)
        b = generate_series(spec, seed=5)
        c = generate_series(spec, seed=6)
        assert a.values.shape == (30, 4, spec.d)
        assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_centered_exponential_innovations(self):
        spec = ModelSpec("ar2", 5000, 5, innovation="centered_exponential", ar=(0.0, 0.0), mu=0.0)
        x = generate_series(spec, seed=1).series().ravel() / spec.sigma**2
        assert abs(x.mean()) < 0.05
        # Exponential(1) - 1 is right-skewed with skewness 2.
        skew = np.mean(x**3) / np.mean(x**2) ** 1.5
        assert 1.5 < skew < 2.5

    def test_periodic_row_means(self):
        spec = ModelSpec("periodic", 4 * 5000, 4, mu=1.0)
        arr = generate_series(spec, seed=3)
        t = 2 * np.pi * np.arange(1, 5) / 4
        expected = 1.0 + np.cos(t) + np.sin(t)
        assert_allclose(arr.values.mean(axis=(0, 2)), expected, atol=0.01)

    def test_mar_lag_one_autocorrelation(self):
        # Component 1 follows a pure AR(1) with coefficient 0.5.
        spec = ModelSpec("mar", 100_000, 100, gap_q=0, cov_kind="identity")
        x = generate_series(spec, seed=8).series()[:, 0]
        x = x - x.mean()
        rho = (x[1:] @ x[:-1]) / (x @ x)
        assert rho == pytest.approx(0.5, abs=0.03)

    def test_mar_mean_vector(self):
        spec = ModelSpec("mar", 40_000, 10)
        got = generate_series(spec, seed=2).series().mean(axis=0)
        assert_allclose(got, [0.2, 0.3, 0.4, 0.5], atol=0.05)

    def test_gap_makes_columns_independent(self):
        # With a long deleted gap, adjacent-column grand means decorrelate.
        spec = ModelSpec("ar2", 400, 4)
        cols = np.stack(
            [generate_series(spec, seed=s).values.mean(axis=(1, 2)) for s in range(150)]
        )
        first, second = cols[:, 0], cols[:, 1]
        corr = np.corrcoef(first, second)[0, 1]
        assert abs(corr) < 0.2


class TestMmaCoefficients:
    def test_structure(self):
        phi1, phi2 = _mma_coefficients(212)
        phi1 = np.asarray(phi1)
        phi2 = np.asarray(phi2)
        assert_array_equal(np.diag(phi1), [1.0, 2.0, 2.0, 2.0])
        assert_array_equal(np.triu(phi1, 1), np.zeros((4, 4)))
        assert_allclose(np.diag(phi2), 0.125)
        lower = phi2[np.tril_indices(4, -1)]
        assert ((0.0 < lower) & (lower < 0.125)).all()

    def test_preset_is_stable(self):
        assert _mma_coefficients(212) == _mma_coefficients(212)


class TestMonteCarloTruth:
    def test_requires_enough_runs(self):
        with pytest.raises(ConfigError):
            monte_carlo_true_se(ModelSpec("ar2", 100, 5), mean_estimator(), runs=50, seed=0)

    def test_ar2_desk_scale(self):
        se = monte_carlo_true_se(ModelSpec("ar2", 200, 5), mean_estimator(), runs=400, seed=123)
        assert se[0] == pytest.approx(0.013, rel=0.15)


def test_row_mean_spread_flags_periodic():
    homogeneous = row_mean_spread(ModelSpec("ar2", 120, 4), runs=150, seed=0)
    assert homogeneous["max_z"] < 4.5
    periodic = row_mean_spread(ModelSpec("periodic", 120, 4), runs=150, seed=0)
    assert periodic["max_z"] > 10.0
