"""Time the set-up of one workload in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Times from just before ``import petrel`` until the workload's CLI
arguments are parsed and its config is built, which is what a user pays
before petrel's first timed call.  Prints that time scaled to the
reference host speed (see speed.py), then in host seconds.
"""

import sys
from pathlib import Path

from harness import WORKLOADS, import_petrel
from speed import SpeedSampler, warm_up

# set-up takes about 0.2 s, so sample more often than during a run
PERIOD_S = 0.02


def main() -> None:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    warm_up()
    with SpeedSampler(PERIOD_S) as sampler:
        start = sampler.clock()
        petrel = import_petrel()
        WORKLOADS[name].build_config(petrel, seed, out)
        host = sampler.clock() - start
    print(host * sampler.scale(), host)


if __name__ == "__main__":
    main()
