"""Seeded generators: streams stay fixed and extreme arguments stay cheap."""

import random

import pytest

from schulze_wcm.sampling import random_skew_graph


def listed_skew_weights(rng, m, magnitude, parity):
    """The draw spelled out over the list of allowed values."""
    if parity is None:
        parity = rng.randint(0, 1)
    allowed = [v for v in range(-magnitude, magnitude + 1) if v % 2 == parity]
    rows = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(x + 1, m):
            value = rng.choice(allowed)
            rows[x][y] = value
            rows[y][x] = -value
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("parity", [0, 1, None])
def test_skew_graph_draws_match_the_listed_values(parity):
    for magnitude in range(12):
        if magnitude == 0 and parity != 0:
            continue  # parity 1 leaves no value; see the empty case below
        for seed in range(3):
            got = random_skew_graph(
                random.Random(seed), 32, magnitude=magnitude, parity=parity
            )
            want = listed_skew_weights(random.Random(seed), 32, magnitude, parity)
            assert got.weights == want


def test_skew_graph_at_a_huge_magnitude_builds_no_value_list():
    magnitude = 2**40
    graph = random_skew_graph(random.Random(0), 6, magnitude=magnitude, parity=1)
    values = [v for row in graph.weights for v in row if v]
    assert len(values) == 30
    assert all(abs(v) <= magnitude and v % 2 == 1 for v in values)


@pytest.mark.parametrize("magnitude, parity", [(0, 1), (5, 2), (-1, 0)])
def test_skew_graph_without_an_allowed_value_raises(magnitude, parity):
    with pytest.raises(ValueError, match="parity"):
        random_skew_graph(random.Random(0), 3, magnitude=magnitude, parity=parity)
