"""Deterministic seed derivation.

Every random draw in a run flows from one top-level seed.  Sub-streams
(topology, trace, policy) get their own seeds derived by hashing the
parent seed together with a purpose label, so adding a consumer never
shifts the draws of another.
"""

from __future__ import annotations

import hashlib
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


def _halves(raw: Callable[[int], np.ndarray], buffered: list[int]) -> Iterator[int]:
    """32-bit halves in ``next_uint32`` order: low half of a fresh word, then its high half."""
    yield from buffered
    while True:
        yield from raw(BATCH).astype("<u8", copy=False).view("<u4").tolist()


def bounded_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """``below(n)``, drawing what ``rng.integers(0, n)`` would for ``1 <= n <= 2**32``.

    On a 64-bit bit generator it is numpy's Lemire draw ("Fast Random Integer
    Generation in an Interval", ACM TOMACS 2019) on halves read ahead, when
    first needed, from ``random_raw`` batches after the generator's buffered
    half.  The draws match; the generator's state after them does not.
    """
    state = rng.bit_generator.state
    if "has_uint32" not in state:
        return lambda n: int(rng.integers(0, n))  # MT19937 draws native 32-bit words
    halves = _halves(rng.bit_generator.random_raw,
                     [state["uinteger"]] if state["has_uint32"] else [])

    def below(n: int) -> int:
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = next(halves) * n
        if m & 0xFFFFFFFF < n:
            threshold = 0x100000000 % n
            while m & 0xFFFFFFFF < threshold:
                m = next(halves) * n
        return m >> 32

    return below
