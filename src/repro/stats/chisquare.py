"""Chi-square goodness-of-fit and independence tests.

The statistic is computed by hand (it is the definition, and the tests
cross-check it against SciPy); only the tail probability comes from SciPy,
because implementing the regularized incomplete gamma adds nothing to the
reproduction.  It is ``scipy.special.chdtrc`` — the function behind
``scipy.stats.chi2.sf``, bit for bit — so importing the package does not
pull in ``scipy.stats`` (about 45 MB of resident memory).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Sequence

from scipy.special import chdtrc as _chdtrc

__all__ = ["chi_square_gof", "chi_square_independence", "uniformity_test"]


def chi_square_gof(
    observed: Sequence[float], expected: Sequence[float]
) -> tuple[float, float]:
    """Return ``(statistic, p_value)`` for observed vs expected counts.

    ``expected`` is rescaled to the observed total, so it may be given as
    probabilities or as unnormalized weights.  Cells with zero expectation
    must have zero observation (else the statistic is infinite by
    convention).
    """
    if len(observed) != len(expected):
        raise ValueError("observed and expected must have equal length")
    total_obs = float(sum(observed))
    total_exp = float(sum(expected))
    if total_obs <= 0 or total_exp <= 0:
        raise ValueError("totals must be positive")
    stat = 0.0
    dof = -1
    for obs, exp in zip(observed, expected):
        scaled = exp * total_obs / total_exp
        if scaled == 0.0:
            if obs:
                return float("inf"), 0.0
            continue
        stat += (obs - scaled) ** 2 / scaled
        dof += 1
    if dof <= 0:
        return 0.0, 1.0
    return stat, float(_chdtrc(dof, stat))


def uniformity_test(
    samples: Sequence[Hashable], population: Sequence[Hashable]
) -> tuple[float, float]:
    """Goodness-of-fit of ``samples`` against uniform over ``population``.

    ``population`` may contain duplicates; expected mass follows multiplicity
    (a value appearing twice should be sampled twice as often).
    """
    expected = Counter(population)
    keys = list(expected)
    index = {key: i for i, key in enumerate(keys)}
    observed = [0] * len(keys)
    for sample in samples:
        observed[index[sample]] += 1  # KeyError = sample outside population
    return chi_square_gof(observed, [expected[key] for key in keys])


def chi_square_independence(table: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Pearson independence test on a two-way contingency table.

    Returns ``(statistic, p_value)`` with ``(r-1)(c-1)`` degrees of freedom.
    Rows/columns with zero marginals are dropped.
    """
    rows = [row for row in table if sum(row) > 0]
    if not rows:
        raise ValueError("empty contingency table")
    cols = len(rows[0])
    keep = [j for j in range(cols) if sum(row[j] for row in rows) > 0]
    rows = [[row[j] for j in keep] for row in rows]
    r, c = len(rows), len(keep)
    if r < 2 or c < 2:
        return 0.0, 1.0
    total = sum(sum(row) for row in rows)
    row_sums = [sum(row) for row in rows]
    col_sums = [sum(rows[i][j] for i in range(r)) for j in range(c)]
    stat = 0.0
    for i in range(r):
        for j in range(c):
            exp = row_sums[i] * col_sums[j] / total
            stat += (rows[i][j] - exp) ** 2 / exp
    dof = (r - 1) * (c - 1)
    return stat, float(_chdtrc(dof, stat))
