"""FIO-style job specification and closed-loop execution.

A :class:`FioJob` describes what FIO would be told on the command line:
pattern, block size, queue depth, and a stop condition (I/O count, bytes, or
runtime).  :func:`run_job` executes the job against any object satisfying
the :class:`repro.devices.Device` protocol with ``queue_depth`` closed-loop
workers (the behaviour of FIO's asynchronous engines) and returns a
:class:`JobResult` with latency and throughput measurements.
:func:`run_streams` runs several (device, job) streams concurrently in one
simulation -- the building block for noisy-neighbor and mixed-fleet cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.host.io import IOKind, IORequest, KiB
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.throughput import ThroughputTimeline
from repro.workload.patterns import AccessPattern, make_pattern

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.devices.protocol import Device
    from repro.sim import Simulator


@dataclass(frozen=True)
class FioJob:
    """Declarative description of one workload job.

    Exactly one of ``io_count``, ``total_bytes``, ``runtime_us`` must be set
    as the stop condition (the first reached stops the job if several are
    given).
    """

    name: str = "job"
    pattern: str = "randread"
    io_size: int = 4 * KiB
    queue_depth: int = 1
    #: Write fraction for the ``randrw`` pattern (0.0 - 1.0).
    write_ratio: Optional[float] = None
    #: Stop after this many I/Os.
    io_count: Optional[int] = None
    #: Stop after this many bytes have been transferred.
    total_bytes: Optional[int] = None
    #: Stop after this much simulated time (us).
    runtime_us: Optional[float] = None
    #: Restrict the job to the first ``region_bytes`` of the device
    #: (``None`` = whole device).
    region_bytes: Optional[int] = None
    region_offset: int = 0
    #: Warm-up I/Os whose latency is not recorded.
    ramp_ios: int = 0
    #: Think time inserted between consecutive I/Os of one worker (us).
    think_time_us: float = 0.0
    #: Pattern-specific knobs forwarded to :func:`make_pattern` (e.g.
    #: ``(("theta", 1.2),)`` for Zipfian or ``(("duty_cycle", 0.5),)`` for
    #: bursty patterns).  Stored as a sorted tuple of pairs so the job stays
    #: hashable and its JSON form is canonical.
    pattern_params: tuple = ()
    seed: int = 1

    def __post_init__(self) -> None:
        if self.io_size <= 0:
            raise ValueError("io_size must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.io_count is None and self.total_bytes is None and self.runtime_us is None:
            raise ValueError("job needs a stop condition "
                             "(io_count, total_bytes, or runtime_us)")
        for name, value in (("io_count", self.io_count),
                            ("total_bytes", self.total_bytes),
                            ("runtime_us", self.runtime_us)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given")
        if self.ramp_ios < 0 or self.think_time_us < 0:
            raise ValueError("ramp_ios and think_time_us must be non-negative")
        if isinstance(self.pattern_params, dict):
            # Accept a plain dict for convenience; normalise to sorted pairs.
            object.__setattr__(self, "pattern_params",
                               tuple(sorted(self.pattern_params.items())))

    def scaled(self, **changes) -> "FioJob":
        """Copy of the job with some fields changed."""
        return replace(self, **changes)


@dataclass
class JobResult:
    """Measurements collected while running one job."""

    job: FioJob
    device_name: str
    ios_completed: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    started_us: float = 0.0
    finished_us: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    write_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    timeline: ThroughputTimeline = field(default_factory=ThroughputTimeline)

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def duration_us(self) -> float:
        return self.finished_us - self.started_us

    @property
    def throughput_gbps(self) -> float:
        """Average throughput in GB/s over the whole job."""
        if self.duration_us <= 0:
            return 0.0
        return self.total_bytes / self.duration_us / 1000.0

    @property
    def write_throughput_gbps(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.bytes_written / self.duration_us / 1000.0

    @property
    def read_throughput_gbps(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.bytes_read / self.duration_us / 1000.0

    @property
    def iops(self) -> float:
        """Average I/O operations per second."""
        if self.duration_us <= 0:
            return 0.0
        return self.ios_completed / self.duration_us * 1e6

    def latency_summary(self) -> LatencySummary:
        return self.latency.summary()


def _build_pattern(job: FioJob, device: "Device") -> AccessPattern:
    region = job.region_bytes if job.region_bytes is not None \
        else device.capacity_bytes - job.region_offset
    return make_pattern(job.pattern, region, job.io_size,
                        write_ratio=job.write_ratio, seed=job.seed,
                        region_offset=job.region_offset,
                        **dict(job.pattern_params))


class _JobState:
    """Mutable per-job state shared by all of a job's workers."""

    __slots__ = ("issued", "stop", "ramp_remaining")

    def __init__(self, ramp_ios: int):
        self.issued = 0
        self.stop = False
        self.ramp_remaining = ramp_ios


def run_job(sim: "Simulator", device: "Device", job: FioJob,
            run: bool = True,
            on_complete: Optional[Callable[["IORequest", float], None]] = None,
            ) -> JobResult:
    """Execute ``job`` against ``device``.

    With ``run=True`` (default) the simulator is advanced until the job
    finishes and the populated :class:`JobResult` is returned.  With
    ``run=False`` the job's processes are only scheduled (so several jobs can
    run concurrently) and the caller advances the simulator itself.

    ``on_complete(request, now_us)`` is invoked for every completed I/O
    (ramp I/Os included) -- the hook the fleet layer uses to mirror writes
    across replication edges.
    """
    result = JobResult(job=job, device_name=device.name, started_us=sim.now)
    pattern = _build_pattern(job, device)
    state = _JobState(job.ramp_ios)
    deadline = sim.now + job.runtime_us if job.runtime_us is not None else None

    # Per-I/O constants, hoisted out of the worker loop.  FIO byte-budget
    # semantics: an I/O is only issued if it fits entirely within the
    # remaining budget, so ``total_bytes`` transfers floor(total / io_size)
    # I/Os -- folded with ``io_count`` into one issue ceiling.
    io_size = job.io_size
    tag = job.name
    issue_limit: Optional[int] = job.io_count
    if job.total_bytes is not None:
        byte_limit = job.total_bytes // io_size
        if issue_limit is None or byte_limit < issue_limit:
            issue_limit = byte_limit
    think_time = job.think_time_us
    # Only patterns that override the hook (bursty on/off phases) are asked
    # for think time; the base implementation is a constant 0.0, so skipping
    # the call is free of side effects (no RNG draws, no state).
    pattern_thinks = type(pattern).next_think_time_us \
        is not AccessPattern.next_think_time_us

    def should_stop() -> bool:
        return (state.stop
                or (issue_limit is not None and state.issued >= issue_limit)
                or (deadline is not None and sim.now >= deadline))

    def worker():
        """Closed-loop worker: hoisted per-I/O constants, bound methods,
        one latency computation, and no think-time hook call for patterns
        that never think."""
        pattern_next = pattern.next
        submit = device.submit
        timeout = sim.timeout
        record_latency = result.latency.record
        record_read = result.read_latency.record
        record_write = result.write_latency.record
        record_timeline = result.timeline.record
        read_kind = IOKind.READ
        # Inline of should_stop() (one closure call per I/O otherwise).
        while not (state.stop
                   or (issue_limit is not None and state.issued >= issue_limit)
                   or (deadline is not None and sim.now >= deadline)):
            if pattern_thinks:
                pause = pattern.next_think_time_us()
                if pause > 0:
                    yield timeout(pause)
                    if should_stop():
                        break
            state.issued += 1
            kind, offset = pattern_next()
            request = yield submit(IORequest(kind, offset, io_size, tag=tag))
            if on_complete is not None:
                on_complete(request, sim.now)
            if state.ramp_remaining > 0:
                state.ramp_remaining -= 1
            else:
                result.ios_completed += 1
                latency = request.complete_time - request.submit_time
                record_latency(latency)
                if kind is read_kind:
                    result.bytes_read += request.size
                    record_read(latency)
                else:
                    result.bytes_written += request.size
                    record_write(latency)
                record_timeline(sim.now, request.size)
            if think_time > 0:
                yield timeout(think_time)
        result.finished_us = sim.now

    workers = [sim.process(worker()) for _ in range(job.queue_depth)]

    if job.runtime_us is not None:
        def watchdog():
            yield sim.timeout(job.runtime_us)
            state.stop = True
        sim.process(watchdog())

    if run:
        completion = sim.all_of(workers)
        sim.run(until=completion)
        result.finished_us = max(result.finished_us, sim.now)
    return result


def run_streams(sim: "Simulator",
                streams: Sequence[tuple["Device", FioJob]]) -> list[JobResult]:
    """Run several (device, job) streams concurrently and wait for all.

    The streams share one simulation, so jobs naming the same device contend
    for it (noisy neighbor) and jobs on different devices form a mixed fleet
    measured under one clock.
    """
    results = [run_job(sim, device, job, run=False) for device, job in streams]
    sim.run()
    for result in results:
        if result.finished_us <= result.started_us:
            result.finished_us = sim.now
    return results


def run_jobs(sim: "Simulator", device: "Device", jobs: list[FioJob]) -> list[JobResult]:
    """Run several jobs concurrently against one device and wait for all."""
    return run_streams(sim, [(device, job) for job in jobs])
