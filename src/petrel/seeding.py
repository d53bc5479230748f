"""Deterministic seed derivation.

Every random draw in a run flows from one top-level seed.  Sub-streams
(topology, trace, policy) get their own seeds derived by hashing the
parent seed together with a purpose label, so adding a consumer never
shifts the draws of another.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Callable, Iterator

import numpy as np


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from any printable parts (seed, labels, indices)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def new_rng(*parts: object) -> np.random.Generator:
    """Generator seeded from :func:`derive_seed` of the given parts."""
    return np.random.default_rng(derive_seed(*parts))


BATCH = 256  # words a policy stream reads ahead at a time


def uint32s(rng: np.random.Generator) -> Callable[[], int]:
    """``next_uint32()``: the 32-bit words ``rng`` hands its bounded draws, in order.

    Each call returns what ``rng.integers(0, 2**32, dtype=np.uint32)`` would.
    A 64-bit bit generator first gives its buffered half, if it holds one,
    then the low and the high half of each ``random_raw`` word; MT19937's raw
    words are 32-bit already.  Words are read ahead in ``BATCH`` batches, when
    first needed, so the draws match but the generator's state after them
    does not.
    """
    state = rng.bit_generator.state
    raw = rng.bit_generator.random_raw

    def batches() -> Iterator[list[int]]:
        if "has_uint32" not in state:  # MT19937
            while True:
                yield raw(BATCH).tolist()
        if state["has_uint32"]:
            yield [state["uinteger"]]
        while True:
            yield raw(BATCH).astype("<u8", copy=False).view("<u4").tolist()

    return chain.from_iterable(batches()).__next__
