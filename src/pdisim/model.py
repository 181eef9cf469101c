"""Exact laws of the counts the sweep reads, and a fast sampler for them.

At N = 4 equal steps the harmonic sums of a pixel are C = I_0 - I_2 and
S = I_1 - I_3, so their photon-count parts are differences of independent
Poisson counts: Skellam variates (Skellam 1946). `poisson_pmf` is a Poisson
law cut to a window that loses a negligible mass; `SkellamTable` holds the
cumulative laws of C and S for each slit and draws them by inversion of
uniforms, in O(1) per draw through a guide index (Chen & Asau 1974).
"""

import math

import numpy as np

from .errors import ShapeError

#: Half-width of the Poisson window, in standard deviations.
WINDOW_SDS = 12.0

#: Counts kept above lambda + WINDOW_SDS sd, so that small rates, whose
#: upper tail is not yet Gaussian, also lose at most 1e-14 of their mass.
WINDOW_PAD = 5


def poisson_pmf(rate: float) -> tuple[int, np.ndarray]:
    """The Poisson(rate) law on the window lambda -/+ 12 sd (lower end at
    least 0; upper end padded by WINDOW_PAD counts): (first count, pmf over
    the consecutive counts from it), normalized over the window. The mass
    outside is at most 1e-14, so the normalization moves no value by more.

    The pmf is built outward from the mode by the ratios p(k) / p(k - 1) =
    lambda / k, summed as logs, which keeps the factorials' large terms
    from cancelling."""
    rate = float(rate)
    if rate == 0.0:
        return 0, np.ones(1)
    half = WINDOW_SDS * math.sqrt(rate)
    lo = max(0, math.ceil(rate - half))
    hi = math.floor(rate + half) + WINDOW_PAD
    mode = math.floor(rate)
    up = np.cumsum(np.log(rate / np.arange(mode + 1, hi + 1)))
    down = np.cumsum(np.log(np.arange(mode, lo, -1) / rate))
    pmf = np.exp(np.concatenate((down[::-1], [0.0], up)))
    return lo, pmf / pmf.sum()


def skellam_pmf(rate_a: float, rate_b: float) -> tuple[int, np.ndarray]:
    """The law of n_a - n_b for independent n_a ~ Poisson(rate_a) and
    n_b ~ Poisson(rate_b), from the windowed pmfs: (first value, pmf)."""
    lo_a, pmf_a = poisson_pmf(rate_a)
    lo_b, pmf_b = poisson_pmf(rate_b)
    hi_b = lo_b + len(pmf_b) - 1
    return lo_a - hi_b, np.convolve(pmf_a, pmf_b[::-1])


class SkellamTable:
    """Inverse-CDF tables of C = n_0 - n_2 and S = n_1 - n_3 for each slit,
    from the rates (4, d) of the four frames.

    The 2d rows are C of slits 0 .. d-1, then S of slits 0 .. d-1. A row's
    CDF is capped at 1, and its last value set to exactly 1, so every
    uniform in [0, 1) maps to a value of the row. A row's guide index holds,
    for each j <= M (M a power of two, longer than the longest row), the
    first entry whose CDF exceeds j / M. The draw of u in [j / M, (j+1) / M)
    lies between guides j and j + 1: it is guide j unless that entry's CDF
    is <= u, as it is for few u, and is bisected up to guide j + 1 then.
    This gives exactly searchsorted(cdf, u, "right") of the row.
    """

    def __init__(self, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or len(rates) != 4:
            raise ShapeError(f"rates shape {rates.shape}, expected (4, d)")
        self.d = rates.shape[1]
        rows = ([skellam_pmf(a, b) for a, b in zip(rates[0], rates[2])]
                + [skellam_pmf(a, b) for a, b in zip(rates[1], rates[3])])
        self.m = 1 << max(len(pmf) for _, pmf in rows).bit_length()
        #: row r is cdf[starts[r]:starts[r + 1]], and likewise values
        self.starts = np.cumsum([0] + [len(pmf) for _, pmf in rows])
        edges = np.arange(self.m + 1) / self.m
        cdfs, guides = [], []
        for (_, pmf), start in zip(rows, self.starts):
            cdf = np.minimum(np.cumsum(pmf), 1.0)
            cdf[-1] = 1.0
            cdfs.append(cdf)
            # guide M, past the row's end, is its last entry, whose CDF is 1
            guides.append(start + np.minimum(
                np.searchsorted(cdf, edges, side="right"), len(cdf) - 1))
        self.cdf = np.concatenate(cdfs)
        self.values = np.concatenate([np.arange(lo, lo + len(pmf), dtype=float)
                                      for lo, pmf in rows])
        self.guide = np.concatenate(guides)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The values (..., 2, d, k) that the uniforms u (..., 2, d, k) in
        [0, 1) select: u[..., 0, s, :] draws C of slit s, u[..., 1, s, :]
        its S."""
        u = np.asarray(u, dtype=float)
        # u * M is exact (M is a power of two), so u = j / M reads guide j
        cell = (np.arange(2 * self.d).reshape(2, self.d, 1) * (self.m + 1)
                + (u * self.m).astype(np.intp)).ravel()
        pos, flat = self.guide[cell], u.ravel()
        # the answer lies in [guide j, guide j + 1]: it is guide j unless a
        # CDF step falls inside the guide cell, and is bisected there
        open_ = np.flatnonzero(self.cdf[pos] <= flat)
        lo, hi, v = pos[open_] + 1, self.guide[cell[open_] + 1], flat[open_]
        while open_.size:
            done = lo == hi
            pos[open_[done]] = lo[done]
            keep = ~done
            open_, lo, hi, v = open_[keep], lo[keep], hi[keep], v[keep]
            mid = (lo + hi) >> 1
            above = self.cdf[mid] > v
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid + 1)
        return self.values[pos].reshape(u.shape)
