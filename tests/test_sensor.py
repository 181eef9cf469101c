from dataclasses import replace

import numpy as np
import pytest

from pdisim import (DomainError, InterferogramSet, NoiseParams,
                    apply_noise, rng_stream, sample_noise, sigma_from_nsamp)
from pdisim.sensor import photon_counts, read_out, rng_streams


def make_set(frames):
    return InterferogramSet(frames=frames, reference=1.0 + 0j)


def test_sigma_from_nsamp_values():
    assert sigma_from_nsamp(1) == pytest.approx(3.0)
    assert sigma_from_nsamp(144) == pytest.approx(0.25)
    assert sigma_from_nsamp(4) == pytest.approx(1.5)


def test_sigma_from_nsamp_monotone():
    sigmas = [sigma_from_nsamp(n) for n in (1, 2, 4, 16, 144, 256, 1024)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_sigma_from_nsamp_domain():
    with pytest.raises(DomainError):
        sigma_from_nsamp(0)


def test_noise_params_derivation_and_consistency():
    assert NoiseParams(nsamp=144).readout_sigma == pytest.approx(0.25)
    assert NoiseParams().readout_sigma == 0.0
    with pytest.raises(DomainError):
        NoiseParams(readout_sigma=1.0, nsamp=144)
    for sigma in (-0.1, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            NoiseParams(readout_sigma=sigma)


def test_degenerate_zero_noise():
    iset = make_set(np.zeros((4, 3, 3)))
    out = apply_noise(iset, NoiseParams(readout_sigma=0.0, seed=1))
    assert np.all(out.frames == 0.0)


@pytest.mark.parametrize("quantize", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_sample_noise_is_a_read_out_of_photon_counts_bit_for_bit(sigma,
                                                                 quantize):
    frames = np.linspace(0.0, 12.0, 4 * 9 * 7).reshape(4, 9, 7)
    rng = rng_stream(8, 2)
    expected = read_out(photon_counts(frames, rng), sigma, rng, quantize)
    assert np.array_equal(sample_noise(frames, sigma, rng_stream(8, 2),
                                       quantize=quantize), expected)
    # and both are Poisson(lambda) + Normal(0, sigma^2), drawn in that order
    rng = rng_stream(8, 2)
    direct = rng.poisson(frames) + (rng.normal(0.0, sigma, frames.shape)
                                    if sigma > 0 else 0.0)
    assert np.array_equal(np.rint(direct) if quantize else direct, expected)


def test_two_readouts_of_one_exposure_differ_by_readout_noise_alone():
    # the difference of reads at sigmas a and b of the same counts is
    # normal, mean 0, variance a^2 + b^2; two exposures at rate 20 would add
    # a Poisson variance of 40
    n, a, b = 2 * 10**5, 0.5, 3.0
    rng = rng_stream(21, 1)
    counts = photon_counts(np.full(n, 20.0), rng)
    kept = counts.copy()
    diff = read_out(counts, a, rng) - read_out(counts, b, rng)
    assert np.array_equal(counts, kept)
    var = a**2 + b**2
    assert abs(diff.mean()) < 4 * np.sqrt(var / n)
    assert abs(diff.var(ddof=1) - var) < 4 * var * np.sqrt(2.0 / (n - 1))


def test_negative_rate_rejected():
    iset = make_set(np.zeros((4, 2, 2)))
    bad = np.asarray(iset.frames).copy()
    bad[0, 0, 0] = -0.5
    with pytest.raises(DomainError):
        sample_noise(bad, 0.0, rng_stream(0))


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
def test_bad_readout_sigma_rejected(sigma):
    with pytest.raises(DomainError):
        sample_noise(np.full(4, 3.0), sigma, rng_stream(0))


def test_poisson_moments_lambda_3():
    rng = rng_stream(42)
    draws = sample_noise(np.full(10**6, 3.0), 0.0, rng)
    assert abs(draws.mean() - 3.0) < 0.006
    assert abs(draws.var() - 3.0) < 0.02


@pytest.mark.parametrize("lam", [0.5, 1.7, 3.0, 11.3])
def test_poisson_moments_within_four_standard_errors(lam):
    n = 2 * 10**5
    draws = sample_noise(np.full(n, lam), 0.0, rng_stream(7))
    se_mean = np.sqrt(lam / n)
    se_var = np.sqrt((2 * lam**2 + lam) / n)  # Poisson: Var(sample var) approx
    assert abs(draws.mean() - lam) < 4 * se_mean
    assert abs(draws.var(ddof=1) - lam) < 4 * se_var


def test_quantized_misclassification_below_band():
    # dark pixel at 0.2 e- readout: nonzero fraction must stay under 1.5%
    n = 2 * 10**5
    draws = sample_noise(np.zeros(n), 0.2, rng_stream(3), quantize=True)
    assert np.mean(draws != 0.0) < 0.015


def test_gaussian_symmetry_skewness():
    n = 2 * 10**5
    draws = sample_noise(np.zeros(n), 1.0, rng_stream(5))
    z = (draws - draws.mean()) / draws.std()
    skew = np.mean(z**3)
    assert abs(skew) < 4 * np.sqrt(6.0 / n)


def test_rng_stream_determinism_and_independence():
    a = rng_stream(42, 0).random(100)
    b = rng_stream(42, 0).random(100)
    c = rng_stream(42, 1).random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# seeds of 1 to 7 32-bit words, at the edges of their word counts
STREAM_SEEDS = [0, 1, 11, 2**32 - 1, 2**32, 2**63 + 5, 2**128 - 1, 2**128,
                2**200 + 3, np.int64(7)]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_rng_streams_are_rng_stream_bit_for_bit(seed):
    ids = list(range(400)) + [2**31, 2**32 - 1]
    streams = rng_streams(seed, ids)
    assert len(streams) == len(ids)
    for stream, stream_id in zip(streams, ids):
        assert (stream.bit_generator.state
                == rng_stream(seed, stream_id).bit_generator.state)
    # and they draw the same numbers
    reference = rng_stream(seed, ids[-1])
    assert np.array_equal(streams[-1].random(7), reference.random(7))
    assert np.array_equal(streams[-1].standard_normal(5),
                          reference.standard_normal(5))


def test_rng_streams_reject_what_rng_stream_rejects():
    assert rng_streams(3, []) == []
    with pytest.raises(ValueError, match="non-negative"):
        rng_stream(-1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        rng_streams(-1, [0])
    with pytest.raises(TypeError):
        rng_streams(2.5, [0])
    # ids past 32 bits take more than the one word hashed here
    with pytest.raises(OverflowError):
        rng_streams(0, [2**32])


def test_apply_noise_bit_identical():
    iset = make_set(np.full((4, 8, 8), 2.7))
    params = NoiseParams(readout_sigma=0.3, seed=99)
    out1 = apply_noise(iset, params)
    out2 = apply_noise(iset, params)
    assert np.array_equal(out1.frames, out2.frames)


def test_scheduling_order_invariance():
    # noising tasks via per-task streams gives the same data set in any order
    iset = make_set(np.full((4, 4, 4), 1.5))
    params = NoiseParams(readout_sigma=0.2, seed=11)

    def run(order):
        results = {}
        for k in order:
            results[k] = replace(iset, frames=sample_noise(
                iset.frames, params.readout_sigma, rng_stream(params.seed, k),
                quantize=params.quantize))
        return [results[k].frames for k in range(len(order))]

    forward = run(list(range(16)))
    permuted = run(list(reversed(range(16))))
    for f, p in zip(forward, permuted):
        assert np.array_equal(f, p)


def test_quantize_rounds_to_integers():
    iset = make_set(np.full((4, 8, 8), 2.7))
    out = apply_noise(iset, NoiseParams(readout_sigma=0.4, quantize=True, seed=1))
    assert np.array_equal(out.frames, np.rint(out.frames))
