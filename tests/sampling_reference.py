"""Reference sampler the sampling policies are twin-tested against.

``sample_two`` draws through ``rng.integers`` what the policies draw
through :func:`petrel.seeding.bounded_draws`, so a policy and this
function fed twin generators must pick the same pair.
"""

from __future__ import annotations

import numpy as np

from petrel.schedulers import _peers, _pick_two


def sample_two(cloudlet_ids: tuple[int, ...], daemon_id: int,
               rng: np.random.Generator) -> tuple[int, ...]:
    """Two distinct non-daemon cloudlets, uniform without replacement.

    Draw for draw the same as ``rng.choice(len(others), size=2,
    replace=False)``, which is Floyd's algorithm followed by a shuffle of
    the two picks, without that call's overhead.

    With a single non-daemon cloudlet the sample degenerates to that one
    node; with none there is nothing to probe and the topology is too
    small for sampling policies.
    """
    return _pick_two(_peers(cloudlet_ids, daemon_id), lambda n: int(rng.integers(0, n)))
