"""Wall time corrected for the speed of the core it was measured on.

On the shared 2-vCPU machine this benchmark was built on, each core's
speed changes by 1.3x to 2.8x for seconds to minutes at a time, with no
steal time reported (README.md, "Drift").  Raw timings then depend on
when a run happened.  ``Clock`` runs a fixed block of a reference kernel
every TICK_S seconds from a SIGALRM handler (after the operation under way,
if that has run for less than a tick), so the speed of the core is sampled
inside long operations as well as between short ones, and reports an
interval's time at reference speed:

    reference time = raw time * reference block time / mean block time around it

where ``raw time`` excludes the time spent in blocks.  The kernels do the
same kinds of work as the library but do not call it, so a change to the
program moves the measurement and a change of core speed does not.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import struct
import time
from typing import Iterator, NamedTuple

TICK_S = 0.04
WINDOW_S = 0.3

_MODULUS = 0x1100B
_ORDER = 1 << 16


def _tables() -> tuple[list[int], list[int]]:
    exp = [0] * (2 * (_ORDER - 1))
    log = [0] * _ORDER
    value = 1
    for power in range(_ORDER - 1):
        exp[power] = exp[power + _ORDER - 1] = value
        log[value] = power
        value <<= 1
        if value & _ORDER:
            value ^= _MODULUS
    return exp, log


# Full-size tables read at scattered places, as the library's are, so the
# kernel suffers what the program suffers when a neighbour crowds the caches.
_EXP, _LOG = _tables()
_rng = random.Random(0x5EED)
_ROWS = [_rng.sample(range(1, _ORDER), 9) + [_rng.randrange(_ORDER) for _ in range(9)]
         for _ in range(64)]
_QUERY = [(_rng.randrange(256), _rng.randrange(256)) for _ in range(20)]
_UNITS = [_rng.randrange(_ORDER) for _ in range(12)]
_next_row = 0
_RECORD = struct.Struct(">HH")


class _Point(NamedTuple):
    a: int
    b: int


# A default vault's 220 records, and the abscissas an exact match would keep.
_BODY = b"".join(_RECORD.pack(_rng.randrange(_ORDER), _rng.randrange(_ORDER))
                 for _ in range(220))
_WANTED = set(_rng.sample(range(_ORDER), 20))


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def _inv(a: int) -> int:
    return _EXP[_ORDER - 1 - _LOG[a]]


def _keystream(seed: int) -> Iterator[int]:
    mask = (1 << 64) - 1
    s = seed
    while True:
        s ^= s >> 12
        s ^= (s << 25) & mask
        s ^= s >> 27
        out = (s * 0x2545F4914F6CDD1D) & mask
        for shift in (48, 32, 16, 0):
            yield (out >> shift) & 0xFFFF


def search_kernel() -> int:
    """Newton divided differences through nine points, a 64-word xorshift
    keystream and an epsilon match: table arithmetic, as in the subset search."""
    global _next_row
    _next_row = (_next_row + 1) % len(_ROWS)
    row = _ROWS[_next_row]
    xs, dd = row[:9], row[9:]
    for level in range(1, 9):
        for i in range(8, level - 1, -1):
            dd[i] = _mul(dd[i] ^ dd[i - 1], _inv(xs[i] ^ xs[i - level]))
    words = _keystream(0x9E3779B97F4A7C15 ^ dd[8])
    block = [next(words) for _ in range(64)]
    hits = 0
    for u in _UNITS:
        x, y = u >> 8, u & 0xFF
        if any((x - qx) ** 2 + (y - qy) ** 2 <= 4 for qx, qy in _QUERY):
            hits += 1
    return hits + sum(block)


def records_kernel() -> int:
    """The search kernel, then 220 records parsed into named tuples, xored
    with a keystream and filtered through a set, and random draws into a set:
    the allocations of parsing, decrypting and matching a vault."""
    seed = search_kernel()
    words = _keystream(seed | 1)
    points = [_Point(a, b) for a, b in _RECORD.iter_unpack(_BODY)]
    points = [_Point(p.a ^ next(words), p.b ^ next(words)) for p in points]
    kept = [p for p in points if p.a in _WANTED]
    draw = random.Random(seed)
    drawn = {_mul(draw.randrange(_ORDER), 3) ^ draw.randrange(_ORDER) for _ in range(12)}
    return len(kept) + len(drawn)


def blend_kernel() -> int:
    """About equal time in each of the two kernels above."""
    return records_kernel() + sum(search_kernel() for _ in range(4))


# name: (kernel, calls per block, reference block time).  A workload uses
# the kernel whose slowdowns follow its own (README.md, "Drift").  When the
# core slowed, the exact verify's time rose 1.03 times as steeply (in log
# terms) as the records kernel's, and the subset search 0.98 times as
# steeply as the search kernel's but 0.71 times as the records kernel's;
# ``noisy`` and ``impostor``, which both match and search, use the blend.
# A block of a few milliseconds sees the same slow phases and host
# preemptions as the program; a call of 0.1 ms alone mostly runs between
# them.  The reference block times are about those of an uncontended core
# of the machine the benchmark was built on (Intel Xeon vCPU, Python
# 3.11.7), where reference time is then close to raw time; they only set
# the scale.
KERNELS = {
    "records": (records_kernel, 4, 2.0e-3),
    "blend": (blend_kernel, 2, 2.0e-3),
}


class Clock:
    """Samples core speed on a timer and converts intervals to reference time."""

    def __init__(self, kernel: str) -> None:
        self.kernel, self.calls, self.reference_s = KERNELS[kernel]
        self.ticks: list[float] = []  # when each block started
        self.block_s: list[float] = []  # how long each block took
        self.stolen = 0.0  # seconds spent in blocks so far
        self.op_since: float | None = None  # start of the operation under way
        self.due = False

    def _tick(self, signum, frame) -> None:
        # A block inside an operation would evict its caches, so an operation
        # shorter than a tick runs undisturbed and the block waits for its end.
        if self.op_since is not None and time.perf_counter() - self.op_since < TICK_S:
            self.due = True
        else:
            self._block()

    def _block(self) -> None:
        self.due = False
        start = time.perf_counter()
        for _ in range(self.calls):
            self.kernel()
        took = time.perf_counter() - start
        self.ticks.append(start)
        self.block_s.append(took)
        self.stolen += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> tuple[float, float]:
        return time.perf_counter(), self.stolen

    def begin(self) -> tuple[float, float]:
        """Start timing an operation."""
        since = self.now()
        self.op_since = since[0]
        return since

    def end(self, since: tuple[float, float]) -> tuple[float, float, float]:
        """Finish timing the operation begun at ``since``; see ``interval``."""
        took = self.interval(since)
        self.op_since = None
        if self.due:
            self._block()
        return took

    def interval(self, since: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, raw seconds) from ``since`` to now, handler time excluded."""
        end, stolen = self.now()
        return since[0], end, (end - since[0]) - (stolen - since[1])

    def reference(self, start: float, end: float, raw: float) -> float:
        """``raw`` seconds spent in [start, end], at reference speed.

        Averages the samples taken within WINDOW_S of the interval: slow
        phases last seconds, and a short interval needs more than the two
        samples that bracket it to see its phase without the samples' noise.
        """
        lo = bisect.bisect_left(self.ticks, start - WINDOW_S)
        hi = bisect.bisect_right(self.ticks, end + WINDOW_S)
        return raw * self.reference_s / statistics.fmean(self.block_s[lo:hi] or self.block_s[-1:])
