"""Counter-based random streams keyed on (seed, stream) pairs."""

from __future__ import annotations

import numpy as np

_KEY_MASK = (1 << 64) - 1


def philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for a (seed, stream) pair."""
    key = ((seed & _KEY_MASK) << 64) | (stream & _KEY_MASK)
    return np.random.Generator(np.random.Philox(key=key))
