"""Decision rules: the adaptive policy's branch table and every baseline."""

from dataclasses import FrozenInstanceError
import itertools
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import make_task
from petrel.schedulers import (
    Assign,
    AssignCloud,
    CloudOnlyScheduler,
    DaaScheduler,
    DaemonOnlyScheduler,
    Delay,
    GreedyScheduler,
    ProbeResult,
    RoundRobinScheduler,
    SCHEDULER_NAMES,
    TwoChoicesScheduler,
    _sampler,
    make_scheduler,
)
from sampling_reference import sample_two
from test_seeding import lemire


def P(cid, expected, idle=False):
    return ProbeResult(cloudlet_id=cid, expected_completion=expected, has_idle_vm=idle)


def sensitive():
    return make_task(daemon_id=0)


def tolerant(arrival=0.0, bound=8000.0):
    return make_task(
        daemon_id=0, task_class="tolerant", arrival_time=arrival, latency_bound=bound
    )


QUANTUM = 500.0

# (label, task, daemon_probe, candidates, delayed_projection, expected_decision);
# the candidates are the daemon's whole peer set, so the sampled pair is fixed
DECISION_TABLE = [
    (
        "idle daemon wins for sensitive tasks",
        sensitive(), P(0, 9000.0, idle=True), [P(1, 1000.0, idle=True)], 0.0,
        Assign(0),
    ),
    (
        "idle daemon wins even against a faster candidate",
        sensitive(), P(0, 5000.0, idle=True), [P(1, 100.0, idle=True), P(2, 200.0, idle=True)], 0.0,
        Assign(0),
    ),
    (
        "idle daemon wins for tolerant tasks",
        tolerant(), P(0, 9000.0, idle=True), [P(1, 1000.0, idle=True)], 0.0,
        Assign(0),
    ),
    (
        "sensitive goes remote when the candidate finishes first",
        sensitive(), P(0, 6000.0), [P(1, 4000.0)], 0.0,
        Assign(1),
    ),
    (
        "sensitive stays home when the candidate is slower",
        sensitive(), P(0, 6000.0), [P(1, 7000.0)], 0.0,
        Assign(0),
    ),
    (
        "sensitive tie goes to the daemon",
        sensitive(), P(0, 6000.0), [P(1, 6000.0)], 0.0,
        Assign(0),
    ),
    (
        "sensitive picks the better of two candidates",
        sensitive(), P(0, 6000.0), [P(2, 4500.0), P(1, 4000.0)], 0.0,
        Assign(1),
    ),
    (
        "candidate tie breaks to the lower id",
        sensitive(), P(0, 6000.0), [P(2, 4000.0), P(1, 4000.0)], 0.0,
        Assign(1),
    ),
    (
        "an idle but slower candidate does not tempt a sensitive task",
        sensitive(), P(0, 6000.0), [P(1, 6500.0, idle=True)], 0.0,
        Assign(0),
    ),
    (
        "a busy but faster candidate is still taken",
        sensitive(), P(0, 6000.0), [P(1, 5999.0, idle=False)], 0.0,
        Assign(1),
    ),
    (
        "tolerant takes an idle candidate",
        tolerant(), P(0, 6000.0), [P(1, 4000.0, idle=True), P(2, 5000.0)], 0.0,
        Assign(1),
    ),
    (
        "idleness of the losing candidate is irrelevant",
        tolerant(bound=8000.0), P(0, 6000.0), [P(1, 5000.0, idle=True), P(2, 4000.0)], 9000.0,
        Assign(0),
    ),
    (
        "tolerant takes an idle candidate even when it looks slower",
        tolerant(), P(0, 6000.0), [P(1, 9000.0, idle=True)], 0.0,
        Assign(1),
    ),
    (
        "two idle candidates: earlier completion wins",
        tolerant(), P(0, 6000.0), [P(1, 5000.0, idle=True), P(2, 4000.0, idle=True)], 0.0,
        Assign(2),
    ),
    (
        "two idle candidates tie on the lower id",
        tolerant(), P(0, 6000.0), [P(2, 5000.0, idle=True), P(1, 5000.0, idle=True)], 0.0,
        Assign(1),
    ),
    (
        "waiting would overrun the bound: settle on the daemon",
        tolerant(bound=8000.0), P(0, 6500.0), [P(1, 9000.0), P(2, 9500.0)], 9000.0,
        Assign(0),
    ),
    (
        "projection exactly at the deadline still settles",
        tolerant(bound=8000.0), P(0, 6500.0), [P(1, 9000.0)], 8000.0,
        Assign(0),
    ),
    (
        "slack remains: defer by one quantum",
        tolerant(bound=8000.0), P(0, 6500.0), [P(1, 9000.0), P(2, 9500.0)], 7000.0,
        Delay(QUANTUM),
    ),
    (
        "a hair of slack is enough to defer",
        tolerant(bound=8000.0), P(0, 6500.0), [P(1, 9000.0)], 7999.0,
        Delay(QUANTUM),
    ),
    (
        "deadline shifts with arrival time",
        tolerant(arrival=3000.0, bound=8000.0), P(0, 9000.0), [P(1, 12000.0)], 10999.0,
        Delay(QUANTUM),
    ),
    (
        "deadline shifts with arrival time, settling branch",
        tolerant(arrival=3000.0, bound=8000.0), P(0, 9000.0), [P(1, 12000.0)], 11000.0,
        Assign(0),
    ),
    (
        "a single degenerate candidate works",
        sensitive(), P(0, 6000.0), [P(1, 4000.0)], 0.0,
        Assign(1),
    ),
    (
        "busy tolerant with one busy candidate can still delay",
        tolerant(bound=100000.0), P(0, 6000.0), [P(1, 7000.0)], 6500.0,
        Delay(QUANTUM),
    ),
]


class StubView:
    """Scripted probe answers standing in for a live cluster."""

    def __init__(self, now, daemon_id, probes, delayed=0.0, ids=None):
        self.now = now
        self.daemon_id = daemon_id
        # ascending unless ``ids`` gives the topology's order
        self.cloudlet_ids = tuple(sorted(p.cloudlet_id for p in probes)) if ids is None else ids
        self._probes = {p.cloudlet_id: p for p in probes}
        self._delayed = delayed
        self.projection_calls = 0

    def probe(self, cloudlet_id):
        return self._probes[cloudlet_id]

    def has_idle_vm(self, cloudlet_id):
        return self.probe(cloudlet_id).has_idle_vm

    def least_completion(self, cloudlet_ids):
        best_id = best = None
        for c in cloudlet_ids:
            done = self._probes[c].expected_completion
            if best_id is None or done < best:
                best, best_id = done, c
        return best_id

    def daemon_completion_if_delayed(self, delay):
        self.projection_calls += 1
        return self._delayed


def daa_decides(task, daemon_probe, candidates, delayed, seed=0):
    """One table case through the real daa policy: ``(decision, view)``.

    The view holds the daemon and the candidates, in the order the case
    lists them, and answers ``delayed`` for the delayed projection.
    """
    probes = [daemon_probe, *candidates]
    view = StubView(0.0, daemon_probe.cloudlet_id, probes, delayed=delayed,
                    ids=tuple(p.cloudlet_id for p in probes))
    return DaaScheduler(np.random.default_rng(seed), QUANTUM).decide(task, view), view


@pytest.mark.parametrize(
    "task, daemon_probe, candidates, delayed, expected",
    [case[1:] for case in DECISION_TABLE],
    ids=[case[0] for case in DECISION_TABLE],
)
def test_decision_table(task, daemon_probe, candidates, delayed, expected):
    # every case samples the daemon's whole peer set, so no draw changes the rule
    for seed in range(4):
        decision, _ = daa_decides(task, daemon_probe, candidates, delayed, seed)
        assert decision == expected


def test_projection_computed_lazily_only_on_the_busy_tolerant_branch():
    _, view = daa_decides(sensitive(), P(0, 6000.0), [P(1, 4000.0)], 7000.0)
    assert view.projection_calls == 0

    _, view = daa_decides(tolerant(), P(0, 6000.0), [P(1, 5000.0, idle=True)], 7000.0)
    assert view.projection_calls == 0

    decision, view = daa_decides(tolerant(), P(0, 6000.0), [P(1, 9000.0)], 7000.0)
    assert decision == Delay(QUANTUM)
    assert view.projection_calls == 1


# (label, daemon, the peers' (id, completion, idle) probes, in topology order)
SHARED_SAMPLING_TABLE = [
    ("distinct completions", 0, [(1, 4000.0, False), (2, 3000.0, False), (3, 5000.0, True)]),
    ("every peer tied", 2, [(0, 4000.0, False), (1, 4000.0, True), (3, 4000.0, False)]),
    ("a tied pair among five", 4, [(3, 100.0, True), (0, 200.0, False), (1, 100.0, False),
                                   (2, 300.0, True), (5, 250.0, False)]),
    ("one peer", 1, [(0, 9000.0, False)]),
]


@pytest.mark.parametrize("daemon, peers", [case[1:] for case in SHARED_SAMPLING_TABLE],
                         ids=[case[0] for case in SHARED_SAMPLING_TABLE])
def test_daa_candidate_is_the_two_choices_pick(daemon, peers):
    # a busy daemon that finishes last sends a sensitive task to daa's candidate
    probes = [P(daemon, 1e9), *(P(c, done, idle) for c, done, idle in peers)]
    ids = tuple(p.cloudlet_id for p in probes)
    task = make_task(daemon_id=daemon)
    for seed in range(20):
        daa = DaaScheduler(np.random.default_rng(seed), QUANTUM)
        two = TwoChoicesScheduler(np.random.default_rng(seed))
        for _ in range(5):
            candidate = daa.decide(task, StubView(0.0, daemon, probes, ids=ids))
            assert candidate == two.decide(task, StubView(0.0, daemon, probes, ids=ids))


def pair_best(pair, probes):
    """The comparator the sampling policies applied to their two probes, kept as the
    reference: the lower probe by ``(expected_completion, cloudlet_id)``."""
    return min((probes[c] for c in pair), key=lambda p: (p.expected_completion, p.cloudlet_id))


# forced ties, an infinite completion, or any float
completions = st.one_of(st.sampled_from([1000.0, 2000.0, inf]),
                        st.floats(0.0, 5000.0, allow_nan=False))


@st.composite
def sampled_cases(draw):
    """Cloudlets with scattered ids in any order, their probes, a daemon and a task class."""
    ids = tuple(draw(st.lists(st.integers(0, 30), min_size=2, max_size=6, unique=True)))
    probes = {c: P(c, draw(completions), draw(st.booleans())) for c in ids}
    # a delayed projection before, at or after the tolerant deadline of 8000
    delayed = draw(st.sampled_from([7999.0, 8000.0, 9000.0]))
    return ids, probes, draw(st.sampled_from(ids)), draw(st.booleans()), delayed


class TestDecisionsMatchThePairComparator:
    """The real sampling policies against the rule they were written as: the
    drawn pair's best by ``(expected_completion, cloudlet_id)``, which daa's
    sensitive branch takes only when it finishes strictly before the daemon."""

    cases = st.lists(sampled_cases(), min_size=1, max_size=20)

    @given(seed=st.integers(0, 2**64 - 1), cases=cases)
    def test_daa(self, seed, cases):
        policy = DaaScheduler(np.random.default_rng(seed), QUANTUM)
        twin = np.random.default_rng(seed)
        for ids, probes, daemon, is_sensitive, delayed in cases:
            task = (make_task(daemon_id=daemon) if is_sensitive else
                    make_task(daemon_id=daemon, task_class="tolerant", latency_bound=8000.0))
            home = probes[daemon]
            if home.has_idle_vm:
                want = Assign(daemon)
            else:
                best = pair_best(sample_two(ids, daemon, twin), probes)
                if is_sensitive:
                    won = best.expected_completion < home.expected_completion
                    want = Assign(best.cloudlet_id if won else daemon)
                elif best.has_idle_vm:
                    want = Assign(best.cloudlet_id)
                elif delayed >= task.deadline:
                    want = Assign(daemon)
                else:
                    want = Delay(QUANTUM)
            view = StubView(0.0, daemon, list(probes.values()), delayed=delayed, ids=ids)
            assert policy.decide(task, view) == want

    @given(seed=st.integers(0, 2**64 - 1), cases=cases)
    def test_two_choices(self, seed, cases):
        policy = TwoChoicesScheduler(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for ids, probes, daemon, _, _ in cases:  # class-blind: every task is alike
            want = Assign(pair_best(sample_two(ids, daemon, twin), probes).cloudlet_id)
            view = StubView(0.0, daemon, list(probes.values()), ids=ids)
            assert policy.decide(make_task(daemon_id=daemon), view) == want


class TestDaaScheduler:
    def test_idle_daemon_skips_sampling_entirely(self):
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        view = StubView(0.0, 0, [P(0, 5000.0, idle=True), P(1, 100.0), P(2, 100.0)])
        decision = DaaScheduler(rng, QUANTUM).decide(sensitive(), view)
        assert decision == Assign(0)
        assert rng.bit_generator.state == before

    def test_busy_daemon_probes_a_sampled_pair(self):
        view = StubView(0.0, 0, [P(0, 9000.0), P(1, 4000.0), P(2, 5000.0)])
        decision = DaaScheduler(np.random.default_rng(1), QUANTUM).decide(sensitive(), view)
        assert decision == Assign(1)

    def test_delay_uses_the_configured_quantum(self):
        view = StubView(
            0.0, 0, [P(0, 9000.0), P(1, 9500.0), P(2, 9600.0)], delayed=7000.0
        )
        decision = DaaScheduler(np.random.default_rng(1), 750.0).decide(tolerant(), view)
        assert decision == Delay(750.0)
        assert view.projection_calls == 1

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ValueError):
            DaaScheduler(np.random.default_rng(0), 0.0)

    @pytest.mark.parametrize("quantum", [nan, inf, -inf])
    def test_rejects_a_non_finite_quantum(self, quantum):
        with pytest.raises(ValueError, match=f"delay_quantum must be finite and > 0, got {quantum}"):
            DaaScheduler(np.random.default_rng(0), quantum)


class RecordingView(StubView):
    """A stub view that logs the cloudlets probed and the orders scanned, in order;
    ``has_idle_vm`` reads through ``probe``, so its reads are logged as probes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probed = []
        self.scanned = []

    def probe(self, cloudlet_id):
        self.probed.append(cloudlet_id)
        return super().probe(cloudlet_id)

    def least_completion(self, cloudlet_ids):
        self.scanned.append(tuple(cloudlet_ids))
        return super().least_completion(cloudlet_ids)


class TestSampledPairsMatchSampleTwo:
    """The sampling policies draw from a read-ahead word stream; every pair
    they scan must be the one ``sample_two`` draws on a twin generator, in id order."""

    decisions = st.lists(
        st.tuples(st.integers(2, 12), st.integers(0, 11), st.booleans()),
        min_size=1, max_size=200,
    )

    @given(seed=st.integers(0, 2**64 - 1), decisions=decisions)
    def test_daa(self, seed, decisions):
        policy = DaaScheduler(np.random.default_rng(seed), QUANTUM)
        twin = np.random.default_rng(seed)
        for count, daemon_pick, daemon_idle in decisions:
            ids = tuple(range(count))
            daemon = daemon_pick % count
            probes = [P(c, 1000.0 + c, idle=(c == daemon and daemon_idle)) for c in ids]
            view = RecordingView(0.0, daemon, probes)
            policy.decide(tolerant(), view)
            # an idle daemon takes the task before anything is drawn
            pair = () if daemon_idle else tuple(sorted(sample_two(ids, daemon, twin)))
            assert view.scanned == ([pair] if pair else [])
            # the lower id finishes first, and only its idle flag is read
            assert view.probed == [daemon, *pair[:1]]

    @given(seed=st.integers(0, 2**64 - 1), decisions=decisions)
    def test_two_choices(self, seed, decisions):
        policy = TwoChoicesScheduler(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for count, daemon_pick, daemon_idle in decisions:
            ids = tuple(range(count))
            daemon = daemon_pick % count
            probes = [P(c, 1000.0 + c, idle=(c == daemon and daemon_idle)) for c in ids]
            view = RecordingView(0.0, daemon, probes)
            policy.decide(sensitive(), view)
            assert view.scanned == [tuple(sorted(sample_two(ids, daemon, twin)))]
            assert view.probed == []


class ScriptedIntegers:
    """``integers(0, n)`` by the test-side Lemire method on scripted 32-bit words."""

    def __init__(self, words):
        self.words = iter(words)

    def integers(self, low, high):
        assert low == 0
        return lemire(self.words.__next__, high)


def scripted_words(seed, zero_at):
    """Sixteen words from a seeded stream with a ``0`` word at ``zero_at``."""
    words = [int(w) for w in np.random.default_rng(seed).integers(0, 2**32, size=16)]
    words[zero_at] = 0
    return words


class TestSamplerOnScriptedWords:
    """The policies' sampler fed scripted words; a ``0`` word is rejected below
    every bound that is not a power of two, so it exercises Lemire's redraw."""

    @given(count=st.integers(3, 12), daemon_pick=st.integers(0, 11),
           seed=st.integers(0, 2**32 - 1), zero_at=st.integers(0, 2))
    def test_pair_matches_the_reference(self, count, daemon_pick, seed, zero_at):
        ids = tuple(range(count))
        daemon = daemon_pick % count
        words = scripted_words(seed, zero_at)
        view = RecordingView(0.0, daemon, [P(c, 1000.0 + c) for c in ids])
        stream = iter(words)
        pair = _sampler(stream.__next__)(view)
        reference = ScriptedIntegers(words)
        assert pair == tuple(sorted(sample_two(ids, daemon, reference)))
        assert list(stream) == list(reference.words)  # as many words consumed, the shuffle's too
        assert view.probed == view.scanned == []  # sampling reads no completion

    @pytest.mark.parametrize("peers", [4, 6, 7, 12])
    def test_a_zero_word_is_redrawn(self, peers):
        # n - 1 is not a power of two, so the first Floyd draw rejects its 0 word
        ids = tuple(range(peers + 1))
        words = [0, 0x9E3779B9, 0x7F4A7C15, 0x6A09E667]
        view = StubView(0.0, 0, [P(c, 1000.0) for c in ids])
        stream = iter([*words, 7])
        pair = _sampler(stream.__next__)(view)
        reference = ScriptedIntegers(words)
        assert pair == tuple(sorted(sample_two(ids, 0, reference)))
        assert list(reference.words) == []  # three draws took four words
        assert list(stream) == [7]

    def test_two_peers_skip_the_first_floyd_draw(self):
        view = StubView(0.0, 0, [P(0, 1.0), P(2, 8.0), P(1, 9.0)], ids=(0, 2, 1))
        # integers(0, 2) twice, as a power of two never redraws: both 0, so the
        # repeat takes the last peer; the shuffle's word is drawn, and id order kept
        stream = iter([0, 0, 7])
        assert _sampler(stream.__next__)(view) == (1, 2)
        assert list(stream) == [7]

    def test_a_single_peer_is_returned_without_a_draw(self):
        view = StubView(0.0, 0, [P(0, 1.0), P(1, 9.0)])
        assert _sampler(iter(()).__next__)(view) == (1,)

    def test_no_peer_is_an_error(self):
        view = StubView(0.0, 4, [P(4, 1.0)])
        with pytest.raises(ValueError, match="sampling needs at least one non-daemon cloudlet"):
            _sampler(iter(()).__next__)(view)


class TestCachedDecisions:
    """Policies hand out prebuilt decisions; they must act as fresh ones."""

    def test_a_cached_assign_is_a_fresh_assign(self):
        view = StubView(0.0, 1, [P(0, 0.0), P(1, 0.0)])
        first = DaemonOnlyScheduler().decide(make_task(daemon_id=1), view)
        second = DaemonOnlyScheduler().decide(make_task(daemon_id=1), view)
        assert first is second
        assert first == Assign(1)
        assert hash(first) == hash(Assign(1))
        assert first != Delay(1)
        assert Assign(1) != Delay(1)

    def test_the_cached_cloud_decision_is_a_fresh_one(self):
        decision = CloudOnlyScheduler().decide(sensitive(), StubView(0.0, 0, [P(0, 0.0)]))
        assert decision is CloudOnlyScheduler().decide(sensitive(), StubView(0.0, 0, [P(0, 0.0)]))
        assert decision == AssignCloud()
        assert hash(decision) == hash(AssignCloud())

    def test_the_cached_delay_is_a_fresh_one(self):
        view = StubView(0.0, 0, [P(0, 9000.0), P(1, 9500.0), P(2, 9600.0)], delayed=7000.0)
        policy = DaaScheduler(np.random.default_rng(1), 750.0)
        decision = policy.decide(tolerant(), view)
        assert decision is policy.decide(tolerant(), view)
        assert decision == Delay(750.0)
        assert decision != Assign(750.0)

    def test_cached_decisions_stay_frozen(self):
        view = StubView(0.0, 0, [P(0, 9000.0), P(1, 9500.0), P(2, 9600.0)], delayed=7000.0)
        assign = DaemonOnlyScheduler().decide(sensitive(), view)
        delay = DaaScheduler(np.random.default_rng(1), 750.0).decide(tolerant(), view)
        with pytest.raises(FrozenInstanceError):
            assign.cloudlet_id = 2
        with pytest.raises(FrozenInstanceError):
            delay.duration = 1.0
        assert DaemonOnlyScheduler().decide(sensitive(), view) == Assign(0)


class TestBaselines:
    def test_daemon_only_never_strays(self):
        view = StubView(0.0, 2, [P(0, 1.0, idle=True), P(1, 1.0), P(2, 9000.0)])
        task = make_task(daemon_id=2)
        assert DaemonOnlyScheduler().decide(task, view) == Assign(2)

    def test_round_robin_cycles_from_the_front(self):
        view = StubView(0.0, 0, [P(0, 0.0), P(1, 0.0), P(2, 0.0)])
        policy = RoundRobinScheduler()
        picks = [policy.decide(sensitive(), view).cloudlet_id for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_round_robin_keeps_one_cursor_per_daemon(self):
        view = StubView(0.0, 0, [P(0, 0.0), P(1, 0.0), P(2, 0.0)])
        policy = RoundRobinScheduler()
        policy.decide(make_task(daemon_id=0), view)
        policy.decide(make_task(daemon_id=0), view)
        other = StubView(0.0, 1, [P(0, 0.0), P(1, 0.0), P(2, 0.0)])
        assert policy.decide(make_task(daemon_id=1), other) == Assign(0)
        assert policy.decide(make_task(daemon_id=0), view) == Assign(2)

    def test_greedy_takes_the_global_argmin(self):
        view = StubView(0.0, 0, [P(0, 5000.0), P(1, 3000.0), P(2, 4000.0)])
        assert GreedyScheduler().decide(sensitive(), view) == Assign(1)

    def test_greedy_tie_prefers_the_daemon(self):
        view = StubView(0.0, 2, [P(0, 3000.0), P(1, 4000.0), P(2, 3000.0)])
        assert GreedyScheduler().decide(make_task(daemon_id=2), view) == Assign(2)

    def test_greedy_tie_between_others_takes_the_lower_id(self):
        view = StubView(0.0, 0, [P(0, 5000.0), P(1, 3000.0), P(2, 3000.0)])
        assert GreedyScheduler().decide(sensitive(), view) == Assign(1)

    def test_greedy_tie_between_others_takes_the_lower_id_not_the_first(self):
        view = RecordingView(0.0, 0, [P(0, 5000.0), P(1, 3000.0), P(2, 3000.0)], ids=(0, 2, 1))
        assert GreedyScheduler().decide(sensitive(), view) == Assign(1)
        assert [sorted(order) for order in view.scanned] == [[0, 1, 2]]

    def test_greedy_tie_with_an_earlier_lower_peer_takes_the_daemon(self):
        view = RecordingView(0.0, 2, [P(0, 3000.0), P(1, 4000.0), P(2, 3000.0)], ids=(0, 2, 1))
        assert GreedyScheduler().decide(make_task(daemon_id=2), view) == Assign(2)
        assert [sorted(order) for order in view.scanned] == [[0, 1, 2]]

    def test_greedy_is_the_least_completion_then_daemon_then_id_key_in_any_order(self):
        # every tie pattern of four cloudlets, every daemon and every id order
        greedy = GreedyScheduler()
        for values in itertools.product((1.0, 2.0), repeat=4):
            probes = [P(c, v) for c, v in enumerate(values)]
            for daemon in range(4):
                for ids in itertools.permutations(range(4)):
                    view = RecordingView(0.0, daemon, probes, ids=ids)
                    expected = Assign(min(ids, key=lambda c: (values[c], c != daemon, c)))
                    assert greedy.decide(make_task(daemon_id=daemon), view) == expected
                    # one scan reads each cloudlet once
                    assert [sorted(order) for order in view.scanned] == [[0, 1, 2, 3]]

    def test_two_choices_takes_the_better_sample(self):
        view = StubView(0.0, 0, [P(0, 1.0), P(1, 5000.0), P(2, 3000.0)])
        decision = TwoChoicesScheduler(np.random.default_rng(3)).decide(sensitive(), view)
        assert decision == Assign(2)

    def test_two_choices_tie_takes_the_lower_id(self):
        view = StubView(0.0, 0, [P(0, 1.0), P(1, 3000.0), P(2, 3000.0)])
        decision = TwoChoicesScheduler(np.random.default_rng(3)).decide(sensitive(), view)
        assert decision == Assign(1)

    def test_two_choices_ignores_an_idle_daemon(self):
        view = StubView(0.0, 0, [P(0, 1.0, idle=True), P(1, 5000.0), P(2, 6000.0)])
        policy = TwoChoicesScheduler(np.random.default_rng(5))
        for _ in range(20):
            assert policy.decide(sensitive(), view).cloudlet_id != 0

    def test_cloud_only(self):
        view = StubView(0.0, 0, [P(0, 1.0, idle=True)])
        assert CloudOnlyScheduler().decide(sensitive(), view) == AssignCloud()


class TestSampleTwo:
    def test_three_cloudlets_always_yield_the_other_two(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pair = sample_two((0, 1, 2), 0, rng)
            assert sorted(pair) == [1, 2]

    def test_samples_are_distinct_and_never_the_daemon(self):
        rng = np.random.default_rng(11)
        ids = tuple(range(6))
        for _ in range(300):
            a, b = sample_two(ids, 3, rng)
            assert a != b
            assert 3 not in (a, b)

    def test_every_unordered_pair_shows_up(self):
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(500):
            seen.add(frozenset(sample_two((0, 1, 2, 3), 0, rng)))
        assert seen == {frozenset(p) for p in [(1, 2), (1, 3), (2, 3)]}

    def test_single_other_degenerates(self):
        assert sample_two((0, 1), 0, np.random.default_rng(0)) == (1,)

    def test_no_others_is_an_error(self):
        with pytest.raises(ValueError):
            sample_two((4,), 4, np.random.default_rng(0))

    @given(
        count=st.integers(2, 12),
        daemon_pick=st.integers(0, 11),
        seed=st.integers(0, 2**32 - 1),
        interleave=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_draws_match_generator_choice(self, count, daemon_pick, seed, interleave):
        # reference: the call sample_two replaces, on a twin generator
        ids = tuple(range(10, 10 + count))
        daemon = ids[daemon_pick % count]
        others = [c for c in ids if c != daemon]
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for also_random in interleave:
            got = sample_two(ids, daemon, rng)
            if len(others) == 1:
                want = (others[0],)
            else:
                picked = twin.choice(len(others), size=2, replace=False)
                want = (others[int(picked[0])], others[int(picked[1])])
            assert got == want
            if also_random:
                assert rng.random() == twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state


class TestFactory:
    def test_builds_every_named_policy(self):
        rng = np.random.default_rng(0)
        for name in SCHEDULER_NAMES:
            policy = make_scheduler(name, rng=rng, delay_quantum=100.0)
            assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("random")

    def test_missing_rng(self):
        with pytest.raises(ValueError):
            make_scheduler("two-choices")

    def test_missing_quantum(self):
        with pytest.raises(ValueError):
            make_scheduler("daa", rng=np.random.default_rng(0))
