import math

import numpy as np
import pytest

from pdisim import QuditScene, ShapeError, rng_stream
from pdisim.forward import frame_rates
from pdisim.model import SkellamTable, poisson_pmf, skellam_pmf


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


@pytest.mark.parametrize("name", RATES)
def test_draw_equals_searchsorted_at_every_guide_edge(name):
    rates = RATES[name]
    table = SkellamTable(rates)
    m, d = table.m, rates.shape[1]
    edges = np.arange(m) / m
    u = np.concatenate([edges, np.nextafter(edges, 0.0),
                        [0.0, np.nextafter(1.0, 0.0)],
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
    assert table.m & (table.m - 1) == 0 and table.m > longest
    for row, _, _, rate_a, rate_b in row_pairs(rates):
        _, pmf = skellam_pmf(rate_a, rate_b)
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
    lo, pmf = poisson_pmf(rate)
    hi = lo + len(pmf) - 1
    assert 0 <= lo <= rate <= hi and pmf.sum() == pytest.approx(1.0, abs=1e-15)
    lost = (sum(exact_poisson(k, rate) for k in range(max(0, lo - 3000), lo))
            + sum(exact_poisson(k, rate) for k in range(hi + 1, hi + 3000)))
    assert lost <= 1e-14
    exact = np.array([exact_poisson(k, rate) for k in range(lo, hi + 1)])
    np.testing.assert_allclose(pmf, exact, rtol=1e-10, atol=0)


def test_poisson_pmf_of_rate_zero_is_a_point_mass():
    lo, pmf = poisson_pmf(0.0)
    assert lo == 0 and pmf.tolist() == [1.0]


def test_table_rejects_rates_of_another_shape():
    for shape in ((3, 6), (4,), (4, 6, 1)):
        with pytest.raises(ShapeError):
            SkellamTable(np.ones(shape))
