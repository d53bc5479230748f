"""
Six policies, same traffic
==========================

Every scheduler sees the identical traces and topologies, so the table
differences below come from placement decisions alone.
"""

from petrel import EdgeCloudConfig
from petrel.cli import comparison_table, run_comparison
from petrel.schedulers import SCHEDULER_NAMES

config = EdgeCloudConfig()

rows = run_comparison(
    config,
    schedulers=list(SCHEDULER_NAMES),
    lambdas=[1.0, 2.0],
    replicates=list(range(1, 11)),
    base_seed=1234,
)

print(comparison_table(rows))

# pick the story out of the numbers: sampling two probes gets close to
# probing everyone, and the adaptive policy beats plain two-choice
# sampling by more when traffic doubles
awt = {(r["scheduler"], r["lambda"]): r["awt"]["mean"] for r in rows}
for lam in (1.0, 2.0):
    gap = awt[("two-choices", lam)] - awt[("daa", lam)]
    print(f"lambda={lam:.0f}: adaptive beats two-choices by {gap:.3f} awt")
