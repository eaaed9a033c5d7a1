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

from .core import check_count


def _key_to_int(key) -> int:
    if isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    check_count("substream key", key, 0)
    return int(key)


def substream(seed: int, *keys) -> np.random.Generator:
    """Independent generator for the given master seed (an integer >= 0)
    and key path."""
    check_count("master seed", seed, 0)
    spawn_key = tuple(_key_to_int(k) for k in keys)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))
