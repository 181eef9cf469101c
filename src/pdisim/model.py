"""Exact laws of the counts the sweep reads, and a fast sampler for them.

At N = 4 equal steps the harmonic sums of a pixel are C = I_0 - I_2 and
S = I_1 - I_3, so their photon-count parts are differences of independent
Poisson counts: Skellam variates (Skellam 1946). `poisson_pmfs` gives Poisson
laws cut to a window that loses a negligible mass; `SkellamTable` holds the
cumulative laws of C and S for each slit and draws them by inversion of
uniforms, in O(1) per draw through a guide index (Chen & Asau 1974).
"""

import numpy as np

from .errors import ShapeError

#: Half-width of the Poisson window, in standard deviations.
WINDOW_SDS = 12.0

#: Counts kept above lambda + WINDOW_SDS sd, so that small rates, whose
#: upper tail is not yet Gaussian, also lose at most 1e-14 of their mass.
WINDOW_PAD = 5


def poisson_pmfs(rates) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Poisson laws of `rates` (1D), in one pass: (first counts, pmfs
    over consecutive counts), each on the window lambda -/+ 12 sd (lower end
    at least 0, upper end padded by WINDOW_PAD counts) and normalized over
    it; the mass outside is at most 1e-14. A pmf is built outward from the
    mode by the ratios p(k) / p(k - 1) = lambda / k, summed as logs, which
    keeps the factorials' large terms from cancelling."""
    rates = np.asarray(rates, dtype=float)
    half, mode = WINDOW_SDS * np.sqrt(rates), np.floor(rates).astype(np.intp)
    lo = np.maximum(0.0, np.ceil(rates - half)).astype(np.intp)
    hi = np.where(rates > 0, np.floor(rates + half) + WINDOW_PAD, 0).astype(np.intp)
    steps = np.arange(1, max((hi - mode).max(), 1) + 1)
    with np.errstate(divide="ignore"):  # rate 0 is a point mass at 0
        up = np.cumsum(np.log(rates[:, None] / (mode[:, None] + steps)), axis=1)
        down = np.cumsum(np.log(np.maximum(mode[:, None] + 1 - steps, 1)
                                / rates[:, None]), axis=1)
    # column len(steps) + j of a row holds log p(mode + j) - log p(mode)
    logs = np.concatenate((down[:, ::-1], np.zeros((len(rates), 1)), up), 1)
    lens = hi - lo + 1
    starts, row = np.cumsum(lens) - lens, np.repeat(np.arange(len(rates)), lens)
    pmf = np.exp(logs[row, np.arange(lens.sum())
                      - (starts + mode - lo - len(steps))[row]])
    return lo, [pmf[a:b] / pmf[a:b].sum() for a, b in zip(starts, starts + lens)]


def skellam_pmfs(rates_a, rates_b) -> tuple[np.ndarray, list[np.ndarray]]:
    """The law of n_a - n_b for independent n_a ~ Poisson(rate_a) and
    n_b ~ Poisson(rate_b), for each pair of `rates_a`, `rates_b`, from the
    windowed pmfs: (first values, pmfs)."""
    lo, pmfs = poisson_pmfs(np.concatenate((rates_a, rates_b)))
    k = len(rates_a)
    hi_b = lo[k:] + [len(pmf) - 1 for pmf in pmfs[k:]]
    return lo[:k] - hi_b, [np.convolve(a, b[::-1])
                           for a, b in zip(pmfs[:k], pmfs[k:])]


class SkellamTable:
    """Inverse-CDF tables of C = n_0 - n_2 and S = n_1 - n_3 for each slit,
    from the rates (4, d) of the four frames, built in one pass.

    The 2d rows are C of slits 0 .. d-1, then S of slits 0 .. d-1. A row's
    CDF is capped at 1, and its last value set to exactly 1, so every
    uniform in [0, 1) maps to a value of the row. A row's guide index holds,
    for each j <= M (M a power of two, longer than the longest row), the
    first entry whose CDF exceeds j / M. The draw of u in [j / M, (j+1) / M)
    is guide j unless that entry's CDF is <= u, as it is for few u, which
    are then searched for in the table by (row, CDF). This gives exactly
    searchsorted(cdf, u, "right") of the row.
    """

    def __init__(self, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or len(rates) != 4:
            raise ShapeError(f"rates shape {rates.shape}, expected (4, d)")
        self.d = rates.shape[1]
        firsts, pmfs = skellam_pmfs(rates[:2].ravel(), rates[2:].ravel())
        lens = np.array([len(pmf) for pmf in pmfs])
        self.m = 1 << int(lens.max()).bit_length()
        #: row r is cdf[starts[r]:starts[r + 1]], and likewise values
        self.starts = np.cumsum([0] + lens.tolist())
        # each row's own running sum, in a row padded after its end
        inside = np.arange(lens.max()) < lens[:, None]
        padded = np.zeros(inside.shape)
        padded[inside] = np.concatenate(pmfs)
        self.cdf = np.minimum(np.cumsum(padded, axis=1)[inside], 1.0)
        self.cdf[self.starts[1:] - 1] = 1.0
        row = np.repeat(np.arange(len(lens)), lens)
        self.values = (np.arange(self.starts[-1])
                       + (firsts - self.starts[:-1])[row]).astype(float)
        # guide j counts the row's CDFs <= j / M, those with ceil(cdf M) <= j
        # (cdf M is exact), up to the row's last entry, whose CDF is 1
        hits = np.bincount(row * (self.m + 1)
                           + np.ceil(self.cdf * self.m).astype(np.intp),
                           minlength=len(lens) * (self.m + 1))
        self.guide = (np.minimum(hits.reshape(len(lens), -1).cumsum(axis=1),
                                 lens[:, None] - 1)
                      + self.starts[:-1, None]).ravel()
        # row + i CDF, in lexicographic (row, CDF) order, as complex sorts
        self._keys = row + 1j * self.cdf

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The values (..., 2, d, k) that the uniforms u (..., 2, d, k) in
        [0, 1) select: u[..., 0, s, :] draws C of slit s, u[..., 1, s, :]
        its S."""
        u = np.asarray(u, dtype=float)
        # u * M is exact (M is a power of two), so u = j / M reads guide j
        cell = (np.arange(2 * self.d).reshape(2, self.d, 1) * (self.m + 1)
                + (u * self.m).astype(np.intp)).ravel()
        pos, flat = self.guide[cell], u.ravel()
        # past a CDF step inside the guide cell, the answer is the row's
        # first entry whose CDF exceeds u: the first key after row + i u
        open_ = np.flatnonzero(self.cdf[pos] <= flat)
        pos[open_] = np.searchsorted(self._keys, cell[open_] // (self.m + 1)
                                     + 1j * flat[open_], side="right")
        return self.values[pos].reshape(u.shape)
