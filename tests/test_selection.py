"""Geometric rank selection against its cumulative-sum definition."""

import numpy as np
import pytest

from femupdate.optimizers import geometric_select


class FixedDraws:
    """Stands in for a Generator whose uniform() returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self):
        return next(self.values)


def accumulated_select(n, q, u):
    """Rank chosen by summing q' (1-q)^r until it exceeds u."""
    q_norm = q / (1.0 - (1.0 - q) ** n)
    acc = 0.0
    for r in range(n):
        acc += q_norm * (1.0 - q) ** r
        if u < acc:
            return r
    return n - 1


@pytest.mark.parametrize("n, q", [(50, 0.08), (2, 0.5), (10, 0.3), (150, 0.08),
                                  (50, 0.9)])
def test_select_matches_accumulated_probabilities(n, q):
    # within a few ulps of u = 1 the running sum rounds and the two can
    # differ by one rank; no seeded draw here comes that close
    draws = np.concatenate([[0.0, 0.5], np.random.default_rng(n).uniform(size=20_000)])
    rng = FixedDraws(draws)
    picked = [geometric_select(range(n), q, rng) for _ in draws]
    assert picked == [accumulated_select(n, q, u) for u in draws]
