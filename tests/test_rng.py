"""Tests for the seed and stream-path checks of the random-stream module."""

from __future__ import annotations

import pytest

from graphtest.errors import ConfigError
from graphtest.rng import check_seed, substream


@pytest.mark.parametrize("seed, message", [
    ("1", "seed must be an integer, got '1'"),
    (True, "seed must be an integer, got True"),
    (1.0, "seed must be an integer, got 1.0"),
    (-1, "seed must be in [0, 2^64), got -1"),
    (2**64, "seed must be in [0, 2^64), got 18446744073709551616"),
])
def test_bad_seed_rejected(seed, message):
    with pytest.raises(ConfigError) as err:
        check_seed(seed)
    assert str(err.value) == message
    with pytest.raises(ConfigError) as err:
        substream(seed, 0)
    assert str(err.value) == message


@pytest.mark.parametrize("entry", [-1, 0.5, "0"])
def test_bad_stream_path_rejected(entry):
    with pytest.raises(ConfigError) as err:
        substream(7, 0, entry)
    assert str(err.value) == f"stream path entries must be non-negative ints, got {entry!r}"


def test_seed_bounds_accepted():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
