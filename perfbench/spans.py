"""Layer spans for one traced workload iteration.

Spans are recorded only from here, by replacing petrel's public
functions and methods with timing wrappers for the duration of a traced
iteration and restoring them afterwards; nothing under ``src/`` knows
about tracing.  Each wrapper measures its call with the iteration's
speed-sampler clock, which leaves out the time spent sampling, and
charges the duration to its own span and to the span it is nested in,
so every layer gets a total and a self time (total minus the part of it
spent in child spans).  Counting decisions, stale probes and events
happens just outside the span being counted, so its small cost lands in
the enclosing span's self time; ``trace.overhead_s`` reports the total
cost of tracing.

The boundaries are the calls the CLI makes into the other modules, the
policy's ``decide`` and the probe view's methods:

    cli.main
      workload.generate / workload.save / workload.load
      config.build_topology
      engine.simulate
        config.build_topology            (``petrel run`` builds it inside)
        schedulers.decide.<policy>
          engine.probe                   ClusterView.probe
          engine.project                 ClusterView.daemon_completion_if_delayed
      metrics.summarize
      cli.write_records / cli.write_summary / cli.write_comparison
"""

from __future__ import annotations

# Span name -> names of the module attributes the CLI reaches it through.
# ``simulate`` imports ``build_topology`` from ``petrel.config`` on every
# call, so that attribute is replaced as well as the CLI's own copy.
MODULE_SPANS = {
    "workload.generate": (("cli", "generate_trace"),),
    "workload.save": (("cli", "save_trace"),),
    "workload.load": (("cli", "load_trace"),),
    "config.build_topology": (("cli", "build_topology"), ("config", "build_topology")),
    "engine.simulate": (("cli", "simulate"),),
    "metrics.summarize": (("cli", "summarize"),),
    "cli.write_records": (("cli", "write_records_csv"),),
    "cli.write_summary": (("cli", "write_summary"),),
    "cli.write_comparison": (("cli", "write_comparison"),),
}

DECISION_KINDS = ("assign_daemon", "assign_peer", "assign_cloud", "delay")


class Tracer:
    """Span totals and exact counters of one traced iteration.

    Use as a context manager: entering installs the wrappers into the
    imported petrel modules, leaving restores the originals.
    """

    def __init__(self, petrel, probe_latency: float, clock):
        self._petrel = petrel
        self._clock = clock
        self._stale_probes_possible = probe_latency > 0
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counters = {"engine.events": 0, "engine.decisions": 0,
                         "engine.delay_wakeups": 0, "engine.probe_stale_calls": 0}
        self.counters.update({f"schedulers.{kind}": 0 for kind in DECISION_KINDS})
        self._stack = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed under span ``name``; ``after(args, result)`` runs once the span is closed."""
        slot = self.spans.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                slot[0] += elapsed
                slot[1] += elapsed - child
                slot[2] += 1
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()  # leave no wrapper behind for the untraced iterations
            raise
        return self

    def _install(self) -> None:
        petrel = self._petrel
        modules = {"cli": petrel.cli, "config": petrel.config}
        for name, targets in MODULE_SPANS.items():
            after = self._count_simulation if name == "engine.simulate" else None
            for module, attr in targets:
                owner = modules[module]
                self._patch(owner, attr, self.wrap(getattr(owner, attr), name, after))
        view = petrel.engine.ClusterView
        self._patch(view, "probe", self._probe_wrapper(view.probe))
        self._patch(view, "daemon_completion_if_delayed",
                    self.wrap(view.daemon_completion_if_delayed, "engine.project"))
        for policy in petrel.SCHEDULER_NAMES:
            cls = type(petrel.make_scheduler(policy, rng=petrel.new_rng(0),
                                             delay_quantum=1.0))
            self._patch(cls, "decide", self.wrap(cls.decide, f"schedulers.decide.{policy}",
                                                 self._count_decision))

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _probe_wrapper(self, probe):
        timed = self.wrap(probe, "engine.probe")
        counters = self.counters
        stale_possible = self._stale_probes_possible

        def traced_probe(view, cloudlet_id):
            # the engine answers non-daemon probes from stale state whenever
            # a probe latency is configured
            if stale_possible and cloudlet_id != view.daemon_id:
                counters["engine.probe_stale_calls"] += 1
            return timed(view, cloudlet_id)

        return traced_probe

    def _count_decision(self, args, decision) -> None:
        schedulers = self._petrel.schedulers
        _, task, _ = args
        if isinstance(decision, schedulers.Assign):
            kind = "assign_daemon" if decision.cloudlet_id == task.daemon_id else "assign_peer"
        elif isinstance(decision, schedulers.AssignCloud):
            kind = "assign_cloud"
        else:
            kind = "delay"
        self.counters[f"schedulers.{kind}"] += 1

    def _count_simulation(self, args, result) -> None:
        wakeup = self._petrel.engine.DELAY_EXPIRED
        self.counters["engine.events"] += len(result.events)
        self.counters["engine.decisions"] += len(result.decisions)
        self.counters["engine.delay_wakeups"] += sum(1 for e in result.events if e.kind == wakeup)

    def layer_metrics(self, wall_s: float, scale: float) -> dict[str, float]:
        """Per-layer times (s, µs per call) and counts for an iteration of ``wall_s``.

        ``wall_s`` is on the tracer's clock; the times reported are scaled
        by ``scale`` to the reference host speed, as the iteration's is.
        """

        def total(name):
            return self.spans.get(name, (0.0, 0.0, 0))[0] * scale

        def self_time(name):
            return self.spans.get(name, (0.0, 0.0, 0))[1] * scale

        def calls(name):
            return self.spans.get(name, (0.0, 0.0, 0))[2]

        def per_call_us(name):
            return total(name) / calls(name) * 1e6 if calls(name) else 0.0

        petrel = self._petrel
        metrics = {
            "engine.probe_s": total("engine.probe"),
            "engine.probe_us": per_call_us("engine.probe"),
            "engine.probe_calls": calls("engine.probe"),
            "engine.project_s": total("engine.project"),
            "engine.self_s": self_time("engine.simulate"),
            "schedulers.decide_self_s": sum(
                self_time(f"schedulers.decide.{p}") for p in petrel.SCHEDULER_NAMES),
        }
        for policy in petrel.SCHEDULER_NAMES:
            metrics[f"schedulers.decide_us.{policy}"] = per_call_us(f"schedulers.decide.{policy}")
        for layer in ("workload.generate", "workload.save", "workload.load",
                      "cli.write_records", "cli.write_summary", "cli.write_comparison",
                      "config.build_topology", "metrics.summarize"):
            metrics[f"{layer}_s"] = total(layer)
        metrics["cli.self_s"] = self_time("cli.main")
        # share of the iteration spent inside the layers the CLI calls
        metrics["trace.coverage"] = (total("cli.main") - self_time("cli.main")) / (wall_s * scale)
        metrics.update(self.counters)
        return metrics
