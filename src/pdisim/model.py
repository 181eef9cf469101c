"""Exact laws of the counts the sweep reads, and a fast sampler for them.

At N = 4 equal steps the harmonic sums of a pixel are C = I_0 - I_2 and
S = I_1 - I_3, so their photon-count parts are differences of independent
Poisson counts: Skellam variates (Skellam 1946). `poisson_pmfs` gives Poisson
laws cut to a window that loses a negligible mass, in one pass per bit length
of the window lengths, and `skellam_pmfs` the laws of their differences;
`SkellamTable` holds the cumulative laws of C and S for each slit of one or
more illuminations, taken from `skellam_pmfs`, and draws them by inversion of
uniforms, in O(1) per draw through a guide index (Chen & Asau 1974).
"""

import numpy as np

from .errors import ShapeError

#: Half-width of the Poisson window, in standard deviations.
WINDOW_SDS = 12.0

#: Counts kept above lambda + WINDOW_SDS sd, so that small rates, whose
#: upper tail is not yet Gaussian, also lose at most 1e-14 of their mass.
WINDOW_PAD = 5


def _poisson_rows(rates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Poisson laws of `rates` (1D) laid end to end, each after one head
    slot that holds 0, in one pass per bucket of window lengths: (first
    counts, heads and pmfs, window lengths); see poisson_pmfs."""
    rates = np.asarray(rates, dtype=float)
    half, mode = WINDOW_SDS * np.sqrt(rates), np.floor(rates).astype(np.intp)
    lo = np.maximum(0.0, np.ceil(rates - half)).astype(np.intp)
    hi = np.where(rates > 0, np.floor(rates + half) + WINDOW_PAD, 0).astype(np.intp)
    lens, below, above = hi - lo + 1, mode - lo, hi - mode
    heads, buckets = np.cumsum(lens + 1) - (lens + 1), np.frexp(lens)[1]
    # log p(k) - log p(mode) of each window, after its head slot's -inf, and
    # the bit length of each window's length in its slots (0 in the heads)
    pmf, slots = np.empty(len(heads) + lens.sum()), np.repeat(buckets, lens + 1)
    pmf[heads], slots[heads] = -np.inf, 0
    # the windows of one bit length form a block, each row padded to the
    # widest (at most twice its own length): the running sums of the logs of
    # k / lambda down from the mode, reversed, then 0 at the mode, then those
    # of lambda / k up from it, for k = mode - D .. mode + U (D, U the
    # widest). A running sum gives a row the same bits whatever its padding.
    # A row runs past its window into logs of counts <= 0 (or of rate 0),
    # never kept; counts are exact in floats
    with np.errstate(divide="ignore", invalid="ignore"):
        for bucket in np.unique(buckets).tolist():
            rows = np.flatnonzero(buckets == bucket)
            down, up = int(below[rows].max()), int(above[rows].max())
            r = rates[rows, None]
            t, steps = np.floor(r), np.arange(1.0, max(down, up) + 1)
            block = np.empty((len(rows), down + up + 1))
            block[:, down] = 0.0
            terms = (t + 1.0 - steps[:down]) / r
            np.cumsum(np.log(terms, out=terms), axis=1,
                      out=block[:, :down][:, ::-1])
            terms = r / (t + steps[:up])
            np.cumsum(np.log(terms, out=terms), axis=1, out=block[:, down + 1:])
            # each row's window, in row order, into the bucket's slots
            col = np.arange(down + up + 1)
            keep = (col >= down - below[rows, None]) & (col <= down + above[rows, None])
            pmf[slots == bucket] = block[keep]
    np.exp(pmf, out=pmf)
    # each window's sum, as pmf.sum() of the window alone gives it: a
    # reduction from 0 over the window, which the head's 0 starts
    pmf /= np.repeat(np.add.reduceat(pmf, heads), lens + 1)
    return lo, pmf, lens


def poisson_pmfs(rates) -> tuple[np.ndarray, list[np.ndarray]]:
    """The Poisson laws of `rates` (1D), in one pass per bucket of window
    lengths (see _poisson_rows): (first counts, pmfs over consecutive
    counts), each on the window lambda -/+ 12 sd (lower end at least 0,
    upper end padded by WINDOW_PAD counts) and normalized over it; the mass
    outside is at most 1e-14. A pmf is built outward from the mode by the
    ratios p(k) / p(k - 1) = lambda / k, summed as logs, which keeps the
    factorials' large terms from cancelling."""
    lo, pmf, lens = _poisson_rows(rates)
    ends = np.cumsum(lens + 1).tolist()
    return lo, [pmf[end - n:end] for end, n in zip(ends, lens.tolist())]


def skellam_pmfs(rates_a, rates_b) -> tuple[np.ndarray, list[np.ndarray]]:
    """The law of n_a - n_b for independent n_a ~ Poisson(rate_a) and
    n_b ~ Poisson(rate_b), for each pair of `rates_a`, `rates_b` (1D):
    (first values, pmfs), one np.convolve per pair (a batched one would sum
    in another order) of the windowed pmfs of the distinct rates."""
    rates, which = np.unique(np.concatenate((rates_a, rates_b)),
                             return_inverse=True)
    lo, pmf, lens = _poisson_rows(rates)
    a, b = which[:len(rates_a)], which[len(rates_a):]
    # window i is pmf[ends[i] - lens[i]:ends[i]], after its head slot, so
    # the reversed window of b stops at that slot, never before index 0
    ends = np.cumsum(lens + 1)
    firsts = ends - lens
    pmfs = [np.convolve(pmf[a0:a1], pmf[b1 - 1:b0 - 1:-1])
            for a0, a1, b0, b1 in zip(firsts[a].tolist(), ends[a].tolist(),
                                      firsts[b].tolist(), ends[b].tolist())]
    return lo[a] - (lo[b] + lens[b] - 1), pmfs


class SkellamTable:
    """Inverse-CDF tables of C = n_0 - n_2 and S = n_1 - n_3 for each slit,
    from the rates (4, d) of the four frames, or the tables of several
    illuminations from their rates (k, 4, d), all from one skellam_pmfs
    call.

    Table t holds rows 2dt .. 2dt + 2d - 1: C of slits 0 .. d-1, then S of
    slits 0 .. d-1. A row's CDF is capped at 1, and its last value set to
    exactly 1, so every uniform in [0, 1) maps to a value of the row; its
    values are consecutive integers. Each row's guide index holds, for each
    j <= M (M = m[t] of its table, a power of two longer than the table's
    longest row), the first entry whose CDF exceeds j / M. The draw of u in
    [j / M, (j+1) / M) is guide j, or past it where that entry's CDF is
    <= u: the next entry if guide j + 1 is no further, else the row's first
    entry whose CDF exceeds u, searched for in the table by (row, CDF). This
    gives exactly searchsorted(cdf, u, "right") of the row. Each row's CDF
    is the np.cumsum of its own pmf, so a table is the same whichever
    tables are built with it.
    """

    def __init__(self, rates: np.ndarray):
        rates = np.asarray(rates, dtype=float)
        if rates.ndim not in (2, 3) or rates.shape[-2] != 4:
            raise ShapeError(f"rates shape {rates.shape}, expected (4, d) "
                             "or (k, 4, d)")
        self.d = rates.shape[-1]
        rates = rates.reshape(-1, 4, self.d)
        firsts, pmfs = skellam_pmfs(rates[:, :2].ravel(), rates[:, 2:].ravel())
        lens = np.array([len(pmf) for pmf in pmfs], dtype=np.intp)
        #: M of each table
        self.m = 1 << np.frexp(lens.reshape(-1, 2 * self.d).max(axis=1))[1].astype(np.intp)
        #: row r is cdf[starts[r]:starts[r + 1]], and likewise values
        self.starts = np.concatenate(([0], np.cumsum(lens)))
        self.cdf = np.concatenate([np.cumsum(pmf) for pmf in pmfs])
        np.minimum(self.cdf, 1.0, out=self.cdf)
        self.cdf[self.starts[1:] - 1] = 1.0
        self.values = (np.arange(float(self.starts[-1]))
                       + np.repeat((firsts - self.starts[:-1]).astype(float), lens))
        # row r's guide is guide[g[r]:g[r] + M + 1], M its table's. Guide j
        # counts the row's CDFs <= j / M, those with ceil(cdf M) <= j (cdf M
        # is exact), up to the row's last entry, whose CDF is 1. Over all
        # rows these places g[r] + ceil(cdf M) ascend, so the guide counts
        # the places <= its own: the rows before r add starts[r]
        m_rows = np.repeat(self.m, 2 * self.d)
        self._guide_starts = np.cumsum(m_rows + 1) - (m_rows + 1)
        self.guide = np.cumsum(np.bincount(
            np.ceil(self.cdf * np.repeat(m_rows, lens)).astype(np.intp)
            + np.repeat(self._guide_starts, lens),
            minlength=(m_rows + 1).sum()))
        # guide M, which counts the whole row, points at its last entry
        self.guide[self._guide_starts + m_rows] = self.starts[1:] - 1
        # row + i CDF, in lexicographic (row, CDF) order, as complex sorts
        self._keys = np.empty(self.starts[-1], dtype=complex)
        self._keys.real = np.repeat(np.arange(len(lens)), lens)
        self._keys.imag = self.cdf

    def draw(self, u: np.ndarray, table: int = 0) -> np.ndarray:
        """The values (..., 2, d, k) that the uniforms u (..., 2, d, k) in
        [0, 1) select from table `table`: u[..., 0, s, :] draws C of slit
        s, u[..., 1, s, :] its S."""
        u = np.asarray(u, dtype=float)
        rows = np.arange(2 * self.d).reshape(2, self.d, 1) + table * 2 * self.d
        # u * M is exact (M is a power of two), so u = j / M reads guide j
        cell = (self._guide_starts[rows]
                + (u * self.m[table]).astype(np.intp)).ravel()
        pos, flat = self.guide[cell], u.ravel()
        # past a CDF step inside the guide cell, the answer is the next
        # entry, unless guide j + 1 is further on: then the row's first
        # entry whose CDF exceeds u, the first key after row + i u
        past = self.cdf[pos] <= flat
        pos += past
        deep = np.flatnonzero(past)
        deep = deep[self.guide[cell[deep] + 1] > pos[deep]]
        row = np.searchsorted(self._guide_starts, cell[deep], side="right") - 1
        pos[deep] = np.searchsorted(self._keys, row + 1j * flat[deep],
                                    side="right")
        return self.values[pos].reshape(u.shape)
