"""Reference sampler the sampling policies are twin-tested against.

``sample_two`` spells the pair draw on ``rng.integers`` and imports
nothing from ``petrel``, so a policy that draws its own way, fed a twin
generator, must still pick the same pair.
"""

from __future__ import annotations

import numpy as np


def sample_two(cloudlet_ids: tuple[int, ...], daemon_id: int,
               rng: np.random.Generator) -> tuple[int, ...]:
    """Two distinct non-daemon cloudlets, uniform without replacement.

    Draw for draw the same as ``rng.choice(len(others), size=2,
    replace=False)``: Floyd's algorithm picks ``integers(0, n - 1)`` and
    then ``integers(0, n)``, taking ``n - 1`` when the second repeats the
    first, and one ``integers(0, 2)`` shuffles the two picks.

    With a single non-daemon cloudlet the sample degenerates to that one
    node, with no draw; with none there is nothing to probe and the
    topology is too small for sampling policies.
    """
    others = [c for c in cloudlet_ids if c != daemon_id]
    n = len(others)
    if n == 0:
        raise ValueError("sampling needs at least one non-daemon cloudlet")
    if n == 1:
        return (others[0],)
    first = int(rng.integers(0, n - 1))
    second = int(rng.integers(0, n))
    if second == first:
        second = n - 1
    if rng.integers(0, 2):
        return (others[first], others[second])
    return (others[second], others[first])
