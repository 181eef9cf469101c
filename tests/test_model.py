import math

import numpy as np
import pytest

from pdisim import QuditScene, ShapeError, rng_stream
from pdisim.experiments import _TABLE_MAX_RATE
from pdisim.forward import frame_rates
from pdisim.model import SkellamTable, poisson_pmfs, skellam_pmfs


def default_rates(illumination):
    """Frame rates (4, 6) of the default scene's slits."""
    values = QuditScene().slit_values()
    reference = np.mean(QuditScene().field().values)
    return frame_rates(values, reference, 4, illumination, values)[0][..., 0]


RATES = {
    # the widest default-grid rates: up to 89 photons
    "default-11.3": default_rates(11.3),
    "default-1.7": default_rates(1.7),
    # zero rates on one side, on both (C or S always 0), and tiny ones
    "zeros": np.array([[0.0, 0.0, 3.2, 0.0, 1e-3, 7.0],
                       [0.0, 4.0, 0.0, 1e-3, 0.0, 2.0],
                       [0.0, 1.0, 0.0, 5e-2, 0.0, 7.0],
                       [5.0, 0.0, 0.0, 0.3, 2.0, 0.0]]),
    "cap": np.array([[1024.0, 1000.0], [0.5, 1024.0], [700.0, 1024.0],
                     [1024.0, 3.0]]),
}


def row_pairs(rates):
    """(row, C or S, slit, rate a, rate b) of each row of a table."""
    d = rates.shape[1]
    for half, (a, b) in enumerate(((0, 2), (1, 3))):
        for slit in range(d):
            yield half * d + slit, half, slit, rates[a, slit], rates[b, slit]


def crowded_cdfs(table):
    """The CDFs below 1 of the entries of every guide cell, of any row of a
    one-illumination table, that holds more than one CDF step: the draws
    past such a cell's first step are the ones searched for in the row."""
    (m,) = table.m
    rows = np.repeat(np.arange(len(table.starts) - 1), np.diff(table.starts))
    # entry e is a step inside cell ceil(cdf M) - 1 of its row
    cells = rows * (m + 1) + np.ceil(table.cdf * m)
    _, which, counts = np.unique(cells, return_inverse=True, return_counts=True)
    cdfs = table.cdf[counts[which] > 1]
    return cdfs[cdfs < 1.0]


@pytest.mark.parametrize("name", RATES)
def test_draw_equals_searchsorted_at_every_guide_edge(name):
    rates = RATES[name]
    table = SkellamTable(rates)
    (m,), d = table.m, rates.shape[1]
    edges = np.arange(m) / m
    # at each CDF of a crowded cell and just below and above it
    crowded = crowded_cdfs(table)
    assert crowded.size
    steps = np.concatenate([crowded, np.nextafter(crowded, 0.0),
                            np.nextafter(crowded, 1.0)])
    u = np.concatenate([edges, np.nextafter(edges, 0.0),
                        [0.0, np.nextafter(1.0, 0.0)], steps[steps < 1.0],
                        rng_stream(2).random(5000)])
    drawn = table.draw(np.broadcast_to(u[:, None, None, None],
                                       (len(u), 2, d, 3)))
    for row, half, slit, _, _ in row_pairs(rates):
        cdf = table.cdf[table.starts[row]:table.starts[row + 1]]
        values = table.values[table.starts[row]:table.starts[row + 1]]
        expected = values[np.searchsorted(cdf, u, side="right")]
        for k in range(3):
            np.testing.assert_array_equal(drawn[:, half, slit, k], expected)


@pytest.mark.parametrize("name", RATES)
def test_table_rows_have_the_skellam_mass_mean_and_variance(name):
    rates = RATES[name]
    table = SkellamTable(rates)
    longest = np.diff(table.starts).max()
    (m,) = table.m
    assert m & (m - 1) == 0 and m > longest
    for row, _, _, rate_a, rate_b in row_pairs(rates):
        _, (pmf,) = skellam_pmfs([rate_a], [rate_b])
        assert abs(pmf.sum() - 1.0) <= 1e-13
        cdf = table.cdf[table.starts[row]:table.starts[row + 1]]
        values = table.values[table.starts[row]:table.starts[row + 1]]
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0)
        prob = np.diff(cdf, prepend=0.0)
        mean = (values * prob).sum()
        var = ((values - mean) ** 2 * prob).sum()
        assert mean == pytest.approx(rate_a - rate_b, abs=1e-9)
        assert var == pytest.approx(rate_a + rate_b, abs=1e-9)


def exact_poisson(count, rate):
    return math.exp(count * math.log(rate) - rate - math.lgamma(count + 1))


@pytest.mark.parametrize("rate", [1e-9, 1e-3, 0.3, 1.0, 2.5, 7.0, 41.0, 89.2,
                                  500.0, 1024.0])
def test_poisson_window_loses_at_most_1e_14(rate):
    (lo,), (pmf,) = poisson_pmfs([rate])
    hi = lo + len(pmf) - 1
    assert 0 <= lo <= rate <= hi and pmf.sum() == pytest.approx(1.0, abs=1e-15)
    lost = (sum(exact_poisson(k, rate) for k in range(max(0, lo - 3000), lo))
            + sum(exact_poisson(k, rate) for k in range(hi + 1, hi + 3000)))
    assert lost <= 1e-14
    exact = np.array([exact_poisson(k, rate) for k in range(lo, hi + 1)])
    np.testing.assert_allclose(pmf, exact, rtol=1e-10, atol=0)


def test_poisson_pmf_of_rate_zero_is_a_point_mass():
    (lo,), (pmf,) = poisson_pmfs([0.0])
    assert lo == 0 and pmf.tolist() == [1.0]


def test_table_rejects_rates_of_another_shape():
    for shape in ((3, 6), (4,), (4, 6, 1), (2, 3, 6), (2, 2, 4, 6)):
        with pytest.raises(ShapeError):
            SkellamTable(np.ones(shape))


def per_row_poisson_pmf(rate):
    """The windowed Poisson law of one rate, built on its own: from the
    mode outward by the ratios lambda / k, summed as logs."""
    if rate == 0.0:
        return 0, np.ones(1)
    half = 12.0 * math.sqrt(rate)
    lo, hi = max(0, math.ceil(rate - half)), math.floor(rate + half) + 5
    mode = math.floor(rate)
    up = np.cumsum(np.log(rate / np.arange(mode + 1, hi + 1)))
    down = np.cumsum(np.log(np.arange(mode, lo, -1) / rate))
    pmf = np.exp(np.concatenate((down[::-1], [0.0], up)))
    return lo, pmf / pmf.sum()


def per_row_table(rates):
    """(cdf, values, guide, starts, m) of a Skellam table built one row at
    a time: each row's Skellam pmf from two per_row_poisson_pmf, its capped
    CDF, and its guide by searchsorted at the edges j / M."""
    rows = []
    for a, b in zip(rates[:2].ravel(), rates[2:].ravel()):
        lo_a, pmf_a = per_row_poisson_pmf(float(a))
        lo_b, pmf_b = per_row_poisson_pmf(float(b))
        rows.append((lo_a - (lo_b + len(pmf_b) - 1),
                     np.convolve(pmf_a, pmf_b[::-1])))
    m = 1 << max(len(pmf) for _, pmf in rows).bit_length()
    starts = np.cumsum([0] + [len(pmf) for _, pmf in rows])
    cdfs, guides = [], []
    for (_, pmf), start in zip(rows, starts):
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        cdf[-1] = 1.0
        cdfs.append(cdf)
        guides.append(start + np.minimum(np.searchsorted(
            cdf, np.arange(m + 1) / m, side="right"), len(cdf) - 1))
    values = np.concatenate([np.arange(lo, lo + len(pmf), dtype=float)
                             for lo, pmf in rows])
    return np.concatenate(cdfs), values, np.concatenate(guides), starts, m


ONE_PASS_RATES = dict(RATES, **{
    f"default-{illum}": default_rates(illum) for illum in (1.7, 3.0, 11.3)},
    edges=np.array([[0.0, 1e-3, _TABLE_MAX_RATE], [1e-3, 0.0, 1.0],
                    [_TABLE_MAX_RATE, 0.0, 1e-3], [1.0, _TABLE_MAX_RATE, 0.0]]),
    # several windows of every bit length up to the cap's: 1 (rate 0), and
    # 3 to 10 (no window has length 2 or 3)
    buckets=np.concatenate(([0.0] * 3, [1e-9, 1e-3], np.geomspace(
        1e-2, _TABLE_MAX_RATE, 251))).reshape(64, 4).T)


@pytest.mark.parametrize("name", ONE_PASS_RATES)
def test_one_pass_table_equals_the_per_row_build(name):
    rates = ONE_PASS_RATES[name]
    table = SkellamTable(rates)
    cdf, values, guide, starts, m = per_row_table(rates)
    assert table.m.tolist() == [m]
    for built, expected in ((table.cdf, cdf), (table.values, values),
                            (table.guide, guide), (table.starts, starts)):
        assert built.dtype == expected.dtype
        assert np.array_equal(built, expected)


# every illumination of a 20 x 20 map, the default grid's, and the edge cases
# of the table rows, each with 6 slits
BATCHED_RATES = ([default_rates(float(illum))
                  for illum in np.geomspace(1.0, 20.0, 20)]
                 + [default_rates(illum) for illum in (1.7, 3.0, 11.3)]
                 + [RATES["zeros"]])


def test_batched_tables_equal_the_per_row_build_of_each_illumination():
    # the rows of one table do not depend on the tables built beside it
    table = SkellamTable(np.stack(BATCHED_RATES))
    rows = 2 * table.d
    guide_starts = np.cumsum([0] + [(m + 1) * rows for m in table.m])
    for t, rates in enumerate(BATCHED_RATES):
        cdf, values, guide, starts, m = per_row_table(rates)
        first, last = table.starts[t * rows], table.starts[(t + 1) * rows]
        assert table.m[t] == m
        assert np.array_equal(table.cdf[first:last], cdf)
        assert np.array_equal(table.values[first:last], values)
        assert np.array_equal(table.starts[t * rows:(t + 1) * rows + 1] - first,
                              starts)
        assert np.array_equal(
            table.guide[guide_starts[t]:guide_starts[t + 1]] - first, guide)


def test_batched_draw_equals_each_illuminations_own_table():
    table = SkellamTable(np.stack(BATCHED_RATES))
    rng = rng_stream(4)
    which = rng.integers(0, len(BATCHED_RATES), 9)
    u = rng.random((9, 50, 2, 6, 3))
    # each table's first 50 guide edges too, and the last uniform below 1
    for cell, t in enumerate(which):
        (m,) = SkellamTable(BATCHED_RATES[t]).m
        u[cell, :, 0, 0, 0] = np.minimum(np.arange(50) / m,
                                         np.nextafter(1.0, 0.0))
    for cell, t in enumerate(which.tolist()):
        assert np.array_equal(table.draw(u[cell], t),
                              SkellamTable(BATCHED_RATES[t]).draw(u[cell]))
        # the uniforms of a strided view, reads last, draw alike
        reads = np.moveaxis(np.moveaxis(u[cell], -1, 0).copy(), 0, -1)
        assert np.array_equal(table.draw(reads, t), table.draw(u[cell], t))
