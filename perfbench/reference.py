"""Host speed reference for normalizing times.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, which would swamp the differences the benchmark is
meant to show.  A fixed pure-Python loop (``chunk``, 2.5 to 4 ms) is
timed at regular intervals while the workload runs; the time of each call
is then scaled by ``NOMINAL_S / mean chunk time`` during the calls of the
same slice of the same round, and the time of each round by the same
ratio over the round.  A change to ringca moves the scaled times exactly
as it moves the raw ones; a change in host speed moves the chunk too and
largely cancels out.  Raw times are kept next to the scaled ones in the
run's record.
"""

from __future__ import annotations

import bisect
import signal
import time

NOMINAL_S = 0.0025  # chunk time the scaled figures are expressed against
ITERATIONS = 200
PERIOD_S = 0.1  # one chunk per period during the timed phase
MIN_CHUNKS = 10  # fewer chunks in a slice of a round: use the slice's whole run


def _kernel(n: int) -> int:
    """Tuple indexing and building, dict lookups and big-integer masks,
    the operations ringca's inner loops are made of."""
    table = tuple(range(7)) * 143
    cells = tuple(i % 10 for i in range(101))
    memo: dict[tuple[int, ...], int] = {}
    acc = 0
    mask = (1 << 600) - 12345
    for r in range(n):
        out = []
        rmt = cells[-1] * 10 + cells[0]
        for i in range(101):
            rmt = (rmt % 100) * 10 + cells[(i + 1) % 101]
            out.append(table[rmt])
        cells = tuple(out)
        key = cells[:4]
        acc += memo.get(key, 0) + ((mask >> (r % 500)) & mask).bit_count()
        memo[key] = acc & 1023
    return acc


def chunk() -> float:
    start = time.perf_counter()
    _kernel(ITERATIONS)
    return time.perf_counter() - start


class Sampler:
    """Times a chunk every PERIOD_S from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so it samples
    inside long calls as well.  Each chunk is tagged with ``part``, the
    slice of the round running when it fired.  ``spent`` is the total
    time taken by the handler, for the caller to subtract from what it
    measures.
    """

    def __init__(self):
        self.part: str | None = None
        self.at: list[float] = []
        self.took: list[float] = []
        self.parts: list[str | None] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        took = chunk()
        self.at.append(entered)
        self.took.append(took)
        self.parts.append(self.part)
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float, part: str | None = None) -> float:
        """NOMINAL_S over the mean time of the chunks taken within
        [start, end] (only during ``part``, if given).

        With fewer than MIN_CHUNKS there, the chunks of ``part`` over the
        whole run are used.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        took = [t for t, p in zip(self.took[lo:hi], self.parts[lo:hi])
                if part is None or p == part]
        if len(took) < MIN_CHUNKS and part is not None:
            took = [t for t, p in zip(self.took, self.parts) if p == part]
        return scale_of(took)


def scale_of(took: list[float]) -> float:
    """NOMINAL_S over the mean of the chunk times ``took``."""
    if not took:  # an interval shorter than PERIOD_S: time one chunk now
        took = [chunk()]
    return NOMINAL_S * len(took) / sum(took)
