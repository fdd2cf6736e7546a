"""Calibrated time: durations divided by interleaved reference kernels.

On a shared host a fixed pure-CPU task swings +-30 % in both wall and CPU
time from one second to the next, and the wait of one fsync swings by a
factor of three on a different rhythm, so raw timings of identical code
do not repeat.  Two fixed kernels are run between consecutive slices of
measured work: :func:`ref_spin` (pure CPU, ~10 ms here) and
:class:`SyncRef` (four small durable appends, ~2 ms).  A slice's CPU
seconds are reported as ``cpu * REF_NOMINAL_S / mean(spins around it)``
and the seconds it waited as ``(wall - cpu) * SYNC_NOMINAL_S /
mean(fsync waits around it)``, i.e. in seconds of a host on which the
spin takes exactly ``REF_NOMINAL_S`` and a reference fsync waits exactly
``SYNC_NOMINAL_S``.

``ref_spin``, ``SyncRef`` and the two nominal values define the unit
every calibrated number in the ledger is expressed in: never edit them.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from os import fsync as _fsync  # bound here: the traced pass patches os.fsync
from typing import Callable, Optional

REF_NOMINAL_S = 0.010
#: Default spacing of the in-loop sampler's spins.  Finer sampling
#: calibrates better (the host's speed moves within a second) but every
#: spin blocks the loop for ~10 ms, so timer-bound workloads keep this.
SAMPLE_S = 0.250

#: What one reference fsync waits on a quiet spell of this host.
SYNC_NOMINAL_S = 0.00035
SYNC_REPEATS = 4
#: A reading below this is a no-op fsync, not a fast disk.
SYNC_FLOOR_S = 0.00002

_BUF = bytes(4096)
_SYNC_BUF = bytes(512)


def ref_spin() -> float:
    """Run the fixed reference kernel once; return its wall seconds."""
    start = time.perf_counter()
    for _ in range(100):
        hashlib.sha256(_BUF).digest()
        sum(i * i for i in range(2000))
    return time.perf_counter() - start


class Slice:
    """One measured stretch of work between two reference readings.

    CPU seconds are scaled by ``factor`` (``REF_NOMINAL_S`` over the
    mean spin around the slice); the rest of the wall time — what the
    process *waited*, which in the CPU-bound workloads is fsync — by
    ``wait_factor`` (``SYNC_NOMINAL_S`` over the mean reference fsync
    wait).  The two move independently on this host: a slice's fsync
    waits double while its CPU seconds stay put.
    """

    __slots__ = ("wall_s", "cpu_s", "factor", "wait_factor")

    def __init__(self, wall_s: float, cpu_s: float, factor: float,
                 wait_factor: float):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.factor = factor
        self.wait_factor = wait_factor

    @property
    def cal_cpu_s(self) -> float:
        return self.cpu_s * self.factor

    @property
    def cal_wall_s(self) -> float:
        waited = max(0.0, self.wall_s - self.cpu_s)
        return self.cal_cpu_s + waited * self.wait_factor

    @property
    def scale(self) -> float:
        """Multiply a raw duration taken inside this slice (with the
        slice's own mix of CPU and waiting) by it to calibrate it."""
        return self.cal_wall_s / self.wall_s if self.wall_s else self.factor


class SyncRef:
    """The I/O reference: :data:`SYNC_REPEATS` x (append 512 B, flush,
    fsync) on a file of its own next to the workload's stores; a
    reading is the mean seconds *waited* per fsync (wall minus CPU)."""

    def __init__(self, path):
        self._handle = open(path, "ab")

    def __call__(self) -> float:
        handle = self._handle
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(SYNC_REPEATS):
            handle.write(_SYNC_BUF)
            handle.flush()
            _fsync(handle.fileno())
        waited = (time.perf_counter() - wall0) - (time.process_time() - cpu0)
        return max(waited, 0.0) / SYNC_REPEATS

    def close(self) -> None:
        self._handle.close()


class Calibrator:
    """Takes reference readings between slices and keeps the host-noise
    bookkeeping.

    A reading is one :func:`ref_spin` plus, when *sync* is given, one
    :class:`SyncRef` call.  Without *sync* (no disk in the workload, or
    a self-test) waiting is scaled like CPU.  *spin* is injectable so
    the self-tests can simulate a slow host.
    """

    def __init__(self, spin: Callable[[], float] = ref_spin,
                 sync: Optional[Callable[[], float]] = None):
        self._spin = spin
        self._sync = sync
        self.spins: list[float] = []
        self.syncs: list[float] = []
        self.spin_wall_s = 0.0
        self.spin_cpu_s = 0.0
        #: How late each sampler wake-up ran: the event loop's timer
        #: lateness, which is also how late a load generator's own
        #: ``sleep`` on this loop fires.
        self.timer_lag_s: list[float] = []
        self._last: Optional[tuple] = None

    def spin(self) -> tuple:
        """One reading: ``(spin seconds, fsync wait seconds or None)``."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        value = self._spin()
        waited = None
        if self._sync is not None:
            waited = self._sync()
            self.syncs.append(waited)
        self.spin_wall_s += time.perf_counter() - wall0
        self.spin_cpu_s += time.process_time() - cpu0
        self.spins.append(value)
        self._last = (value, waited)
        return self._last

    def _slice(self, wall: float, cpu: float, readings: list,
               raw_wait: bool = False) -> Slice:
        factor = REF_NOMINAL_S / statistics.fmean(r[0] for r in readings)
        if raw_wait:
            wait_factor = 1.0
        elif self._sync is None:
            wait_factor = factor
        else:
            waited = statistics.fmean(r[1] for r in readings)
            wait_factor = SYNC_NOMINAL_S / max(waited, SYNC_FLOOR_S)
        return Slice(wall, cpu, factor, wait_factor)

    # -- synchronous slices ------------------------------------------------

    def run_slice(self, work: Callable[[], object]) -> Slice:
        """Run *work* as one slice: reading (if none is fresh), work,
        reading."""
        before = self._last if self._last is not None else self.spin()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        work()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        return self._slice(wall, cpu, [before, self.spin()])

    # -- awaited calls that outlast a slice --------------------------------

    async def run_sampled(self, awaitable, every_s: float = SAMPLE_S,
                          raw_wait: bool = False) -> Slice:
        """Await one public call while a sampler task on the same loop
        takes a reading every *every_s*; calibrate by the readings that
        fell inside it (plus those at its two edges).  With *raw_wait*
        the call's waiting is timers, not fsync, and stays unscaled."""
        inside = [self._last if self._last is not None else self.spin()]

        async def sampler() -> None:
            while True:
                due = time.perf_counter() + every_s
                await asyncio.sleep(every_s)
                self.timer_lag_s.append(max(0.0, time.perf_counter() - due))
                inside.append(self.spin())

        task = asyncio.ensure_future(sampler())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spun_wall0, spun_cpu0 = self.spin_wall_s, self.spin_cpu_s
        try:
            await awaitable
        finally:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # The sampler's own readings ran inside the call: take them out.
        wall = time.perf_counter() - wall0 - (self.spin_wall_s - spun_wall0)
        cpu = time.process_time() - cpu0 - (self.spin_cpu_s - spun_cpu0)
        inside.append(self.spin())
        return self._slice(wall, cpu, inside, raw_wait)

    def forget(self) -> None:
        """Drop the cached last reading (after an untimed pause it is
        stale)."""
        self._last = None

    # -- host-noise report -------------------------------------------------

    def mean_factors(self) -> tuple:
        """``(CPU factor, wait factor)`` over every reading taken."""
        factor = (REF_NOMINAL_S / statistics.fmean(self.spins)
                  if self.spins else 1.0)
        if not self.syncs:
            return factor, factor
        waited = max(statistics.fmean(self.syncs), SYNC_FLOOR_S)
        return factor, SYNC_NOMINAL_S / waited

    def host_metrics(self, window_wall_s: float) -> dict:
        spins = self.spins or [REF_NOMINAL_S]
        median = statistics.median(spins)
        if len(spins) >= 4:
            q1, _, q3 = statistics.quantiles(spins, n=4)
            iqr = (q3 - q1) / median
        else:
            iqr = 0.0
        return {
            "host.ref_spin_ms": median * 1000.0,
            "host.ref_spin_iqr": iqr,
            "host.ref_sync_us": (
                statistics.median(self.syncs) * 1e6 if self.syncs else 0.0
            ),
            "host.cal_duty": self.spin_wall_s / max(window_wall_s, 1e-9),
            "host.spins": len(spins),
        }
