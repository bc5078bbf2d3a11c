import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import lfilter

import gapboot._rand as rand_module
import gapboot.models as models_module
from gapboot import (
    ConfigError,
    DimensionError,
    ModelSpec,
    apply_estimator,
    build_data_array,
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
    _ar2_filter,
    _gap_cut,
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
#: ModelSpec still held the 15 fields ``spec_digest`` rebuilds.  The ``ar2``
#: values SHA was re-recorded when ``_ar2_filter`` replaced ``lfilter``.
FAMILY_PINS = {
    "ar2": (300, 0.1, "c61df88b0299b2b5fabad67060160f79ccaa19a781e334a54f36054e87a2aeb2",
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


def gap_indices(m, p, q):
    """Parent indices of the retained observations, shape (m, p): the
    fancy-index reference for ``_gap_cut``."""
    return np.arange(m)[:, None] * (p + q) + np.arange(p)[None, :]


@pytest.mark.parametrize("m, p, q", [(2, 1, 0), (10_000, 5, 0), (6, 5, 300), (100, 40, 10), (3, 4, 60)])
@pytest.mark.parametrize("d", [None, 4])
def test_gap_cut_is_the_fancy_index_cut(m, p, q, d):
    length = (m - 1) * (p + q) + p
    base = np.random.default_rng(m).standard_normal((500 + length,) + ((d,) if d else ()))
    parent = base[500:]
    cut = _gap_cut(parent, m, p, q)
    assert not cut.flags.writeable
    assert cut.tobytes() == parent[gap_indices(m, p, q)].tobytes()
    assert cut[-1, -1].tobytes() == parent[-1].tobytes()


def ma2_reference(spec, seed):
    """``generate_series(spec, seed).values`` for ``ma2``, filtered by
    ``scipy.signal.lfilter`` as the generator once did: the reference for
    its ``np.convolve`` form."""
    m, p, q, burn = spec.m, spec.p, spec.gap_q, DEFAULT_BURN_IN
    size = burn + (m - 1) * (p + q) + p
    eps = UNIVARIATE_SD * _innovations(derived_stream(seed, "series"), spec.innovation, size)
    parent = lfilter([1.0, *MA_COEFFICIENTS], [1.0], eps)[burn:]
    return (spec.mu + parent[gap_indices(m, p, q)])[..., None]


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


#: How far ``_ar2_filter`` may stray from ``lfilter``, as a multiple of the
#: largest magnitude of the series: 16 eps (about 2 eps is seen).
AR2_TOLERANCE = 16 * np.finfo(float).eps


def assert_within_ar2_tolerance(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= AR2_TOLERANCE * np.abs(want).max()


class TestAr2Filter:
    # blocks are 64 steps long: lengths on both sides of one and two blocks
    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65, 127, 128, 129, 500, 50_500, 300_000])
    @pytest.mark.parametrize("innovation", ["normal", "centered_exponential"])
    def test_matches_lfilter(self, length, innovation):
        x = UNIVARIATE_SD * _innovations(np.random.default_rng(length), innovation, length)
        a1, a2 = AR_COEFFICIENTS
        assert_within_ar2_tolerance(_ar2_filter(x), lfilter([1.0], [1.0, -a1, -a2], x))

    @pytest.mark.parametrize("length", [1, 2, 65, 50_500])
    def test_residuals_are_the_input(self, length):
        x = np.random.default_rng(length).standard_normal(length)
        y = _ar2_filter(x)
        a1, a2 = AR_COEFFICIENTS
        lagged = np.concatenate([[0.0, 0.0], y])
        residual = y - a1 * lagged[1:-1] - a2 * lagged[:-2] - x
        assert np.abs(residual).max() <= AR2_TOLERANCE * np.abs(y).max()

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the GEMMs split no sum across threads, so each step's bits stay put
        script = (
            "import hashlib, numpy as np; from gapboot import ModelSpec, generate_series; "
            "from gapboot.models import _ar2_filter; "
            "x = np.random.default_rng(1).standard_normal(300_000); "
            "v = generate_series(ModelSpec('ar2', 50_000, 5, gap_q=0), seed=3).values; "
            "print(hashlib.sha256(_ar2_filter(x).tobytes() + v.tobytes()).hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(models_module.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1


def two_path_series(spec, seed):
    """``generate_series(spec, seed)`` as it was written with one branch for
    the univariate and one for the vector families, each folding its
    values through ``build_data_array``: the reference for the one path.
    ``ar2`` keeps the ``lfilter`` call it was written with."""
    rng = derived_stream(*(seed if isinstance(seed, tuple) else (seed,)), "series")
    m, p, q, burn = spec.m, spec.p, spec.gap_q, DEFAULT_BURN_IN
    parent_len = (m - 1) * (p + q) + p
    t = 2.0 * np.pi * np.arange(1, p + 1) / p
    phase = np.cos(t) + np.sin(t)
    if spec.family in ("ar2", "ma2", "periodic"):
        if spec.family == "periodic":
            noise = UNIVARIATE_SD * _innovations(rng, spec.innovation, (m, p))
            values = spec.mu + phase[None, :] + noise
        else:
            eps = UNIVARIATE_SD * _innovations(rng, spec.innovation, burn + parent_len)
            if spec.family == "ar2":
                a1, a2 = AR_COEFFICIENTS
                parent = lfilter([1.0], [1.0, -a1, -a2], eps)[burn:]
            else:
                b1, b2 = MA_COEFFICIENTS
                parent = np.convolve([1.0, b1, b2], eps)[burn : burn + parent_len]
            values = spec.mu + _gap_cut(parent, m, p, q)
        return build_data_array(values.reshape(spec.n), p=p)

    chol = np.eye(4) if spec.cov_kind == "identity" else np.linalg.cholesky(
        (-TOEPLITZ_RHO) ** np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    )
    mean = np.asarray(MULTIVARIATE_MEAN)
    if spec.family == "mperiodic":
        eta = _innovations(rng, spec.innovation, (m, p, 4)) @ chol.T
        values = mean[None, None, :] + phase[None, :, None] + eta
        return build_data_array(values.reshape(spec.n, 4), p=p)

    eta = _innovations(rng, spec.innovation, (burn + parent_len, 4)) @ chol.T
    if spec.family == "mar":
        psi = np.asarray(MAR_TRANSITION)
        parent = np.empty_like(eta)
        state = np.zeros(4)
        for t in range(eta.shape[0]):
            state = psi @ state + eta[t]
            parent[t] = state
        parent = parent[burn:]
    else:
        phi1, phi2 = (np.asarray(phi) for phi in _mma_coefficients(212))
        lagged1 = np.vstack([np.zeros((1, 4)), eta[:-1]])
        lagged2 = np.vstack([np.zeros((2, 4)), eta[:-2]])
        parent = (eta + lagged1 @ phi1.T + lagged2 @ phi2.T)[burn:]
    values = mean[None, None, :] + _gap_cut(parent, m, p, q)
    return build_data_array(values.reshape(spec.n, 4), p=p)


@pytest.mark.parametrize("n, p, gap_q", [(24, 4, None), (200, 5, 0), (400, 8, 0), (600, 3, 7), (50_000, 5, 0)])
@pytest.mark.parametrize("cov_kind", ["identity", "toeplitz"])
@pytest.mark.parametrize("innovation", ["normal", "centered_exponential"])
@pytest.mark.parametrize("family", list(FAMILY_GAPS))
def test_one_path_is_the_two_path_generator_bit_for_bit(family, innovation, cov_kind, n, p, gap_q):
    # bit for bit, but for ar2's filter, held to AR2_TOLERANCE of lfilter's
    spec = ModelSpec(family, n, p, innovation=innovation, gap_q=gap_q, cov_kind=cov_kind)
    for seed in (0, 3, (1, "truth", 7)):
        got = generate_series(spec, seed).values
        want = two_path_series(spec, seed).values
        assert got.shape == want.shape and got.flags.c_contiguous, seed
        if family == "ar2":
            assert_within_ar2_tolerance(got, want)
        else:
            assert got.tobytes() == want.tobytes(), seed


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

    @pytest.mark.parametrize(
        "family, n, p, gap_q",
        [("ar2", 200, 5, None), ("mma", 200, 5, None), ("ar2", 2000, 5, 0), ("mar", 40, 5, None)],
        ids=["ar2", "mma", "ar2-contiguous", "mar"],
    )
    def test_threaded_series_equal_serial_series(self, monkeypatch, fast_switching, family, n, p, gap_q):
        # each series is one task and returns only its own row of estimates
        spec = ModelSpec(family, n, p, gap_q=gap_q)
        generate = models_module.generate_series
        threads = {}

        def recording(spec, seed):
            threads[seed[-1]] = threading.current_thread()
            return generate(spec, seed)

        monkeypatch.setattr(models_module, "generate_series", recording)
        ses = {}
        for workers in (1, 8):
            monkeypatch.setattr(rand_module, "_WORKERS", workers)
            threads.clear()
            ses[workers] = monte_carlo_true_se(spec, mean_estimator(), runs=120, seed=(4, "truth"))
            used = set(threads.values())
            assert sorted(threads) == list(range(120))
            if workers == 1:
                assert used == {threading.main_thread()}
            else:
                assert len(used) >= 2 and threading.main_thread() in used
        estimates = [
            apply_estimator(mean_estimator(), generate(spec, (4, "truth", "truth", r)).series())
            for r in range(120)
        ]
        for se in ses.values():
            assert_array_equal(se, np.std(estimates, axis=0, ddof=1))


def test_row_mean_spread_flags_periodic():
    assert row_mean_spread(ModelSpec("ar2", 120, 4), runs=150, seed=0) < 4.5
    assert row_mean_spread(ModelSpec("periodic", 120, 4), runs=150, seed=0) > 10.0


def test_row_mean_spread_is_thread_invariant(monkeypatch):
    spec = ModelSpec("mma", 120, 4)
    spreads = []
    for workers in (1, 8):
        monkeypatch.setattr(rand_module, "_WORKERS", workers)
        spreads.append(row_mean_spread(spec, runs=50, seed=(2, "chk")))
    assert spreads[0] == spreads[1]


@pytest.mark.parametrize(
    "runs, message",
    [(1, "need at least 2 runs to compare row means, got 1"), (1.5, "runs must be an integer, got 1.5")],
    ids=["one", "float"],
)
def test_row_mean_spread_needs_two_integer_runs(runs, message):
    # one run gave NaN and RuntimeWarnings, 1.5 numpy's bare TypeError
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        row_mean_spread(ModelSpec("ma2", 24, 4), runs=runs, seed=0)
