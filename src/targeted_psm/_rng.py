"""Named, reproducible RNG substreams.

Every random draw in the package flows from one master seed through
`substream(seed, *keys)`.  Keys may be strings ("lca-init", "cv-folds",
"signs", "covariates", "outcomes", ...) or integers (study ids, replicate
indices); strings are mapped to 64-bit integers with a stable hash, so the
same (seed, keys) pair yields the same stream on every platform and run.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError("integer substream keys must be nonnegative")
        return int(key)
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"substream keys must be str or int, got {type(key)!r}")


def substream(seed: int, *keys) -> np.random.Generator:
    """Independent generator for the given master seed (>= 0) and key path."""
    if seed < 0:
        raise ValueError(f"the master seed must be >= 0, got {seed!r}")
    spawn_key = tuple(_key_to_int(k) for k in keys)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))
