"""Deterministic random-stream derivation.

All randomness in the package flows through :func:`substream`, which derives
an independent generator from a 64-bit master seed plus an integer path
(for example ``substream(seed, cell_index, replicate)``).  Derived streams
are stable across runs and independent of scheduling, so replicated
experiments produce identical results whether they run serially or on a
worker pool.
"""

from __future__ import annotations

import numpy as np
# Imported here, not on first use, so forked pool workers inherit it.
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError

MAX_SEED = 2**64 - 1


def check_integer(value, name: str) -> int:
    """``value``, required to be an ``int`` or numpy integer (not a bool)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def check_seed(seed: int) -> int:
    """Validate and return a master seed (unsigned 64-bit integer)."""
    if not 0 <= check_integer(seed, "seed") <= MAX_SEED:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator keyed by ``(master_seed, *path)``.

    The same key always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    check_seed(master_seed)
    for p in path:
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise ConfigError(f"stream path entries must be non-negative ints, got {p!r}")
    seq = SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path))
    return default_rng(seq)


def fresh_seed() -> int:
    """Draw a master seed from OS entropy (for runs without --seed)."""
    return int(SeedSequence().generate_state(1, np.uint64)[0])
