import dataclasses
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import lfilter

import gapboot._rand as rand_module
from gapboot import (
    ConfigError,
    DimensionError,
    ModelSpec,
    generate_series,
    mean_estimator,
    monte_carlo_true_se,
)
from gapboot.models import (
    AR_COEFFICIENTS,
    DEFAULT_BURN_IN,
    FAMILY_GAPS,
    MA_COEFFICIENTS,
    MAR_TRANSITION,
    MULTIVARIATE_MEAN,
    TOEPLITZ_RHO,
    UNIVARIATE_SD,
    _gap_indices,
    _innovations,
    _mma_coefficients,
    row_mean_spread,
)
from gapboot._rand import derived_stream
from gapboot.od import DEFAULT_SPLIT_THETA, SplitProportions

#: Per family: the resolved gap_q and mu of ``ModelSpec(family, 24, 4)``,
#: the SHA-256 of ``generate_series(spec, seed=3).values`` and the SHA-256
#: of every resolved field (``spec_digest``), recorded from the per-family
#: factories that ModelSpec replaced (``ar2_model(24, 4)`` and so on), when
#: ModelSpec still held the 15 fields ``spec_digest`` rebuilds.
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
    """SHA-256 of the 15 resolved fields ModelSpec once held -- its own six
    plus the generator constants that moved to module level -- numbers as
    Python floats and ints."""
    fields = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    fields.update(
        sigma=0.2, mu=spec.mu, ar=AR_COEFFICIENTS, ma=MA_COEFFICIENTS, mean=MULTIVARIATE_MEAN,
        transition=MAR_TRANSITION, rho=TOEPLITZ_RHO, burn_in=DEFAULT_BURN_IN,
        ma_mats=_mma_coefficients(212) if spec.family == "mma" else (),
    )
    fields = {name: np.asarray(value).tolist() for name, value in fields.items()}
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


def test_generator_constants_are_valid():
    # what ModelSpec's range checks guarded while these were settable
    a1, a2 = AR_COEFFICIENTS
    assert (np.abs(np.roots([-a2, -a1, 1.0])) > 1.0).all()
    assert np.abs(np.linalg.eigvals(np.asarray(MAR_TRANSITION))).max() < 1.0
    toeplitz = (-TOEPLITZ_RHO) ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    np.linalg.cholesky(toeplitz)
    assert SplitProportions(DEFAULT_SPLIT_THETA).infeasible_entries() == []


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
        # periodic: the array is the slot mean plus the scaled innovations
        spec = ModelSpec("periodic", 5000, 5, innovation="centered_exponential")
        t = 2 * np.pi * np.arange(1, 6) / 5
        mean = spec.mu + np.cos(t) + np.sin(t)
        x = (generate_series(spec, seed=1).values[..., 0] - mean).ravel() / UNIVARIATE_SD
        assert abs(x.mean()) < 0.05
        # Exponential(1) - 1 is right-skewed with skewness 2.
        skew = np.mean(x**3) / np.mean(x**2) ** 1.5
        assert 1.5 < skew < 2.5

    def test_periodic_row_means(self):
        spec = ModelSpec("periodic", 4 * 5000, 4)
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


def ma2_reference(spec, seed):
    """``generate_series(spec, seed).values`` for ``ma2``, filtered by
    ``scipy.signal.lfilter`` as the generator once did: the reference for
    its ``np.convolve`` form."""
    m, p, q, burn = spec.m, spec.p, spec.gap_q, DEFAULT_BURN_IN
    size = burn + (m - 1) * (p + q) + p
    eps = UNIVARIATE_SD * _innovations(derived_stream(seed, "series"), spec.innovation, size)
    parent = lfilter([1.0, *MA_COEFFICIENTS], [1.0], eps)[burn:]
    return (spec.mu + parent[_gap_indices(m, p, q)])[..., None]


class TestMa2Filter:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 531, 30_490, 300_000])
    def test_convolve_is_lfilter_bit_for_bit(self, length):
        eps = np.random.default_rng(length).standard_normal(length)
        taps = [1.0, *MA_COEFFICIENTS]
        assert np.convolve(taps, eps)[:length].tobytes() == lfilter(taps, [1.0], eps).tobytes()

    # (10000, 5) at the default gap filters burn + parent length = 30,490 steps.
    @pytest.mark.parametrize("innovation", ["normal", "centered_exponential"])
    @pytest.mark.parametrize("n, p, gap_q", [(8, 4, None), (24, 4, None), (200, 5, 0), (10_000, 5, None)])
    def test_generate_series_matches_lfilter(self, n, p, gap_q, innovation):
        spec = ModelSpec("ma2", n, p, innovation=innovation, gap_q=gap_q)
        values = generate_series(spec, seed=4).values
        assert values.tobytes() == ma2_reference(spec, 4).tobytes()


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

    @pytest.mark.parametrize("family", ["ar2", "mma"])
    def test_threaded_series_equal_serial_series(self, monkeypatch, fast_switching, family):
        # each series writes only its own row of the shared estimates
        spec = ModelSpec(family, 200, 5)
        monkeypatch.setattr(rand_module, "_WORKERS", 8)
        ses = []
        for gate in (1 << 62, 0):
            monkeypatch.setattr(rand_module, "_MIN_THREAD_DRAWS", gate)
            ses.append(monte_carlo_true_se(spec, mean_estimator(), runs=120, seed=(4, "truth")))
        estimates = [
            mean_estimator().evaluate(generate_series(spec, (4, "truth", "truth", r)).series())
            for r in range(120)
        ]
        assert_array_equal(ses[0], np.std(estimates, axis=0, ddof=1))
        assert_array_equal(ses[1], ses[0])


def test_row_mean_spread_flags_periodic():
    assert row_mean_spread(ModelSpec("ar2", 120, 4), runs=150, seed=0) < 4.5
    assert row_mean_spread(ModelSpec("periodic", 120, 4), runs=150, seed=0) > 10.0
