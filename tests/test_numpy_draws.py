"""numpy's draws that every trace, topology and policy stream rests on, pinned by name.

NEP 19 does not promise ``Generator`` streams across numpy versions.  The
goldens and digests would catch a moved stream too, but only as a digest
mismatch; these tests name the draw that moved.  The vectors were taken
from numpy 2.4.6 at fixed seeds, drawn the way ``src/`` draws them.
"""

import numpy as np

from petrel.seeding import derive_seed, new_rng


def moved(draw):
    return f"numpy {np.__version__} changed the {draw} stream; the goldens will move with it"


def test_exponential_as_generate_arrivals_draws_it():
    rng = np.random.default_rng(derive_seed(1234, "arrivals"))
    gaps = rng.exponential(1000.0, size=4).tolist()
    assert gaps == [1894.336784587673, 736.7878715233892, 87.987505205822,
                    473.22563197304925], moved("Generator.exponential")


def test_integers_as_build_topology_draws_vm_counts():
    vm_counts = new_rng(1234, "topology").integers(1, 11, size=8).tolist()
    assert vm_counts == [10, 2, 5, 1, 7, 7, 6, 4], moved("Generator.integers")


def test_uniform_arrays_as_build_topology_draws_speed_factors():
    speeds = new_rng(1234, "topology").uniform(0.5, 2.0, size=4).tolist()
    assert speeds == [0.6677701387999087, 0.5752987005351833, 1.5024950184192325,
                      1.0537850110190372], moved("Generator.uniform")


def test_uniform_scalars_as_build_topology_draws_remote_rtts():
    rng = new_rng(1234, "topology")
    rtts = [float(rng.uniform(50.0, 70.0)) for _ in range(3)]
    assert rtts == [52.23693518399878, 51.00398267380244, 63.366600245589765], \
        moved("scalar Generator.uniform")


def test_random_raw_under_new_rng():
    words = new_rng(1234, "mix").bit_generator.random_raw(4).tolist()
    assert words == [5747809059283972055, 6612770142579436629, 6154621598350661035,
                     16260851225320411540], moved("PCG64 random_raw")
