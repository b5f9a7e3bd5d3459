"""The backfill profile: bisection search against the quadratic oracle.

``_ReferenceProfile`` is the original breakpoint scan, kept verbatim as
the oracle.  The bisection profile must return the same earliest fit,
raise where it raises, and carve the same ``(times, avail)`` step
function after every reservation, including on carved (non-monotone)
profiles and on breakpoints closer together than the 1e-12 tolerance.
The deep-queue tests then pin whole schedules: a t=0 burst of 300 jobs
must start, place and backfill every job alike with either profile, and
alike whether or not a pass with no free node skips backfill, on a
homogeneous cluster and on a mixed pool.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import scheduler
from repro.cluster.scheduler import ClusterConfig, ClusterSimulation, _FreeProfile
from repro.cluster.traces import TraceConfig, generate_trace
from repro.errors import ExperimentError
from repro.experiments.parallel import ExperimentPool, RunCache


class _ReferenceProfile:
    """Free-node count over future time, for reservation carving.

    A step function represented as breakpoints ``(time, avail)``; the
    last value extends to infinity.  ``earliest_fit`` finds the first
    time a demand fits for a duration; ``reserve`` carves it out.
    O(n^2) over breakpoints — traces are tens of jobs, not millions.
    """

    def __init__(self, now: float, avail: int, releases: list[tuple[float, int]]):
        points: dict[float, int] = {now: 0}
        for t, n in releases:
            points[max(t, now)] = points.get(max(t, now), 0) + n
        self._times = sorted(points)
        level = avail
        self._avail = []
        for t in self._times:
            level += points[t]
            self._avail.append(level)

    def _avail_at(self, t: float) -> int:
        avail = 0
        for bt, av in zip(self._times, self._avail):
            if bt <= t + 1e-12:
                avail = av
            else:
                break
        return avail

    def earliest_fit(self, need: int, duration: float) -> float:
        # candidate starts are profile breakpoints only: on a carved
        # (non-monotonic) profile that can be slightly pessimistic, but
        # never lets a backfill delay an earlier reservation.
        for start in self._times:
            window_end = start + duration
            ok = all(
                av >= need
                for bt, av in zip(self._times, self._avail)
                if start - 1e-12 <= bt < window_end - 1e-12
            ) and self._avail_at(start) >= need
            if ok:
                return start
        raise ExperimentError("reservation does not fit on any horizon")

    def reserve(self, start: float, duration: float, need: int) -> None:
        end = start + duration
        for t in (start, end):
            if t not in self._times:
                idx = len([bt for bt in self._times if bt < t])
                self._times.insert(idx, t)
                self._avail.insert(idx, self._avail[idx - 1] if idx > 0 else 0)
        for i, bt in enumerate(self._times):
            if start - 1e-12 <= bt < end - 1e-12:
                self._avail[i] -= need


# -- oracle property ----------------------------------------------------------

#: offsets that put breakpoints on, inside and just outside the 1e-12
#: tolerance of a grid time.
_JITTER = (0.0, 3e-13, -3e-13, 1e-12, -1e-12, 1.5e-12, 2e-12)

_times = st.builds(
    lambda base, jitter: base + jitter,
    st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.25, 5.0, 7.5, 10.0, 40.0)),
    st.sampled_from(_JITTER),
)
_durations = st.one_of(
    st.sampled_from((0.0, 1e-13, 1e-12, 2e-12, 0.5, 1.0, 2.5)),
    st.floats(min_value=1e-3, max_value=60.0),
    st.builds(lambda d, j: d + j, st.sampled_from((0.5, 1.0, 2.5)), st.sampled_from(_JITTER)),
)
#: one step of a backfill pass: fit a job and carve it where it fits, or
#: carve at an arbitrary time (which can drive the profile non-monotone,
#: even negative).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("fit"), st.integers(1, 20), _durations),
        st.tuples(st.just("carve"), st.integers(1, 6), _durations, _times),
    ),
    max_size=25,
)


def _state(profile):
    return list(profile._times), list(profile._avail)


@settings(max_examples=300, deadline=None)
@given(
    now=_times,
    avail=st.integers(0, 8),
    releases=st.lists(st.tuples(_times, st.integers(1, 4)), max_size=8),
    steps=_steps,
)
def test_bisection_profile_matches_reference(now, avail, releases, steps):
    fast = _FreeProfile(now, avail, list(releases))
    ref = _ReferenceProfile(now, avail, list(releases))
    assert _state(fast) == _state(ref)
    for step in steps:
        if step[0] == "fit":
            _, need, duration = step
            try:
                expected = ref.earliest_fit(need, duration)
            except ExperimentError:
                with pytest.raises(ExperimentError):
                    fast.earliest_fit(need, duration)
                continue
            assert fast.earliest_fit(need, duration) == expected
            start = expected
        else:
            _, need, duration, start = step
        ref.reserve(start, duration, need)
        fast.reserve(start, duration, need)
        assert _state(fast) == _state(ref)
        for t in ref._times:
            assert fast._avail_at(t) == ref._avail_at(t)
            assert fast._avail_at(t - 5e-13) == ref._avail_at(t - 5e-13)


def test_skip_ahead_lands_on_first_window_past_the_shortfall():
    # free 4 nodes now, 1 at t=1 (a carved dip), 4 again from t=3 on
    profile = _FreeProfile(0.0, 4, [(2.0, 0)])
    profile.reserve(1.0, 2.0, 3)
    assert profile._times == [0.0, 1.0, 2.0, 3.0]
    assert profile._avail == [4, 1, 1, 4]
    assert profile.earliest_fit(2, 0.5) == 0.0
    assert profile.earliest_fit(2, 1.5) == 3.0
    assert profile.earliest_fit(1, 10.0) == 0.0


# -- deep-queue placement identity --------------------------------------------

_MIX = (("skylake", 8), ("graniterapids", 8))


class _ReferenceOnFloats(_ReferenceProfile):
    """The oracle fed its times as plain floats.  The scheduler hands it
    numpy scalars; converting them keeps every value and every IEEE
    operation the same and halves the cost of the oracle's scans."""

    def __init__(self, now, avail, releases):
        super().__init__(float(now), avail, [(float(t), n) for t, n in releases])


def _unguarded_schedule_pass(self):
    """``ClusterSimulation._schedule_pass`` as it was before passes with
    no free node skipped backfill: every pass re-carves the queue."""
    now = self.clock.now
    starters = []
    while self._queue and self._fits_now(self._queue[0].job):
        starters.append(self._claim(self._queue.popleft().job, backfilled=False))
    if self._queue and self.config.backfill:
        starters.extend(self._backfill_pass(now, starters))
    if starters:
        self._launch(starters, now)


def _schedule(trace, config, pool):
    """Every started job's ``(index, start_s, end_s, placement,
    backfilled)`` in completion order, then the jobs still running, and
    the simulated time of the error that stopped the run (None if it
    completed)."""
    sim = ClusterSimulation(trace, config, pool=pool)
    sim.start()
    error_at = None
    try:
        while sim.step():
            pass
    except ExperimentError:
        error_at = sim.clock.now
    finished = [
        (j.index, j.start_s, j.end_s, j.placement, j.backfilled)
        for j in sim.harvest_outcomes()
    ]
    running = sorted(
        (r.start.job.index, r.start_s, r.end_s, r.start.placement, r.start.backfilled)
        for r in sim._running.values()
    )
    return finished, running, error_at


# The 300-job burst on the mixed pool stops early with "reservation does
# not fit on any horizon" under either profile: two breakpoints closer
# than 1e-12 at a profile's tail, the earlier one still carved, fall into
# every candidate start's window.  Comparing the partial schedules and
# the failure time pins that too, until it is mended.
@pytest.mark.parametrize(
    "node_mix, n_jobs, completes",
    [(None, 300, True), (_MIX, 300, False), (_MIX, 128, True)],
    ids=["homogeneous", "node_mix", "node_mix-128"],
)
def test_deep_queue_schedule_matches_reference(monkeypatch, node_mix, n_jobs, completes):
    trace = generate_trace(
        TraceConfig(n_jobs=n_jobs, seed=7, burst_fraction=1.0, scale=0.01)
    )
    config = ClusterConfig(n_nodes=16, node_mix=node_mix)
    # one pool for every run: the later ones replay cached physics, so
    # the schedules differ only in the profile that placed them, or in
    # whether passes with no free node re-carve the queue.
    pool = ExperimentPool(jobs=1, cache=RunCache())
    fast = _schedule(trace, config, pool)
    with monkeypatch.context() as patch:
        patch.setattr(scheduler, "_FreeProfile", _ReferenceOnFloats)
        assert _schedule(trace, config, pool) == fast
    with monkeypatch.context() as patch:
        patch.setattr(ClusterSimulation, "_schedule_pass", _unguarded_schedule_pass)
        assert _schedule(trace, config, pool) == fast
    finished, _, error_at = fast
    if completes:
        assert error_at is None and len(finished) == n_jobs
        assert any(backfilled for *_, backfilled in finished)
