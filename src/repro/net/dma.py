"""Host-local DMA engine model.

The receiver datapath of the UD Broadcast protocol copies every chunk from
the staging ring into the user buffer (paper §III-B, step 4).  The copy is
issued to a non-blocking DMA queue so that network receives overlap with
staging-to-user movement; the paper quotes 1–3 µs PCIe latency per copy.

:class:`DmaEngine` models exactly that: a FIFO engine with finite bandwidth
and a fixed per-op latency.  ``copy()`` returns an event that fires when
the bytes have landed; the data is physically moved at completion time.
``copy_runs()`` is the receive-batch form: it returns the completion
instants and leaves what happens at them to the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.sim.events import Event
from repro.units import US, gib_per_s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["DmaEngine"]


class DmaEngine:
    """A non-blocking copy engine with bandwidth and latency.

    Parameters
    ----------
    sim:
        The simulator.
    bandwidth:
        Sustained copy bandwidth, bytes/second (PCIe 4.0 x16 ≈ 25 GiB/s).
    latency:
        Fixed queuing/doorbell/PCIe latency added to every operation.
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth: float = gib_per_s(25),
        latency: float = 2.0 * US,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.busy_until = 0.0
        self.bytes_copied = 0
        self.ops = 0

    def copy(self, src: np.ndarray, dst: np.ndarray) -> Event:
        """Queue a copy of ``src`` into ``dst``; event fires at completion.

        The source view is captured by reference and read at completion
        time, mirroring descriptor-based DMA; callers must not recycle the
        source (staging slot) until the event fires.
        """
        if src.nbytes != dst.nbytes:
            raise ValueError(f"size mismatch: {src.nbytes} != {dst.nbytes}")
        n = int(src.nbytes)
        now = self.sim.now
        start = now if now > self.busy_until else self.busy_until
        finish = start + n / self.bandwidth
        self.busy_until = finish
        self.bytes_copied += n
        self.ops += 1
        done = Event(self.sim)

        def _complete() -> None:
            dst[:] = src
            done.succeed()

        self.sim.post_at(finish + self.latency, _complete)
        return done

    def copy_runs(self, segments) -> List[float]:
        """Scatter-gather batch: queue many copies with pre-computed issue
        instants, coalescing the data movement of adjacent slots.

        ``segments`` is a sequence of ``(src, dst, ops)`` where ``src`` /
        ``dst`` are spanning views over a run of adjacent staging slots /
        user-buffer chunks, and ``ops`` lists the run's per-slot
        ``(nbytes, issue_time)`` pairs in issue order (issue times
        non-decreasing across the whole call).

        Returns every op's completion instant, in op order — a pure chain
        that posts no event.  The instants are **bit-identical** to calling
        :meth:`copy` once per op at its ``issue_time``: the engine chain
        (``start = max(issue, busy_until)``, ``finish = start + n/bw``)
        replays the exact float sequence.  Each span's bytes move now, at
        issue — early, never late, which is safe because readers gate on
        per-chunk ``placed`` bits the caller sets at the returned instants.
        """
        bw = self.bandwidth
        lat = self.latency
        busy = self.busy_until
        done: List[float] = []
        total = 0
        for src, dst, ops in segments:
            if src.nbytes != dst.nbytes:
                raise ValueError(f"size mismatch: {src.nbytes} != {dst.nbytes}")
            dst[:] = src
            for nbytes, when in ops:
                start = when if when > busy else busy
                busy = start + nbytes / bw
                total += nbytes
                done.append(busy + lat)
        self.busy_until = busy
        self.bytes_copied += total
        self.ops += len(done)
        return done
