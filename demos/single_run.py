"""
One simulated hour at the edge
==============================

Generates a Poisson trace from the default application mix, runs the
adaptive scheduler over it, and reads the results off the records.
"""

from petrel import EdgeCloudConfig, generate_trace, simulate, summarize

config = EdgeCloudConfig(cloudlet_count=5, task_count=60, seed=7)
trace = generate_trace(config, config.seed)

print(f"{len(trace)} tasks over {trace[-1].arrival_time / 1000.0:.0f} s, "
      f"mix: {sorted(set(t.profile.benchmark for t in trace))}\n")

result = simulate(config, trace, "daa", seed=config.seed)

print("the first few placements:")
print(f"{'task':>4} {'bench':<9} {'daemon':>6} {'ran on':>7} "
      f"{'waited':>7} {'turnaround':>11} {'delays':>6}")
for r in result.records[:10]:
    waited = r.start_time - r.assign_time
    print(f"{r.task_id:>4} {trace[r.task_id].profile.benchmark:<9} {r.daemon_id:>6} "
          f"{'cloud' if r.executor is None else r.executor:>7} {waited:>6.0f}m {r.turnaround:>10.0f}m "
          f"{r.delays_taken:>6}")

summary = summarize(result.records, result.topology)
print(f"\nawt            {summary.awt:.3f}   (1.0 would mean nobody ever waited)")
print(f"avg speedup    {summary.avg_speedup:.2f}x")
print(f"makespans      min {summary.makespan_min / 1000.0:.0f} s, "
      f"avg {summary.makespan_avg / 1000.0:.0f} s, max {summary.makespan_max / 1000.0:.0f} s")
print(f"bound misses   {summary.bound_violations}")

redirected = sum(1 for r in result.records
                 if r.executor not in (None, r.daemon_id))
print(f"\n{redirected} of {len(trace)} tasks were pushed off their daemon cloudlet")
