"""Host-local DMA engine model.

The receiver datapath of the UD Broadcast protocol copies every chunk from
the staging ring into the user buffer (paper §III-B, step 4).  The copy is
issued to a non-blocking DMA queue so that network receives overlap with
staging-to-user movement; the paper quotes 1–3 µs PCIe latency per copy.

:class:`DmaEngine` models exactly that: a FIFO engine with finite bandwidth
and a fixed per-op latency, copying between ``(region, offset)`` pairs.
The engine charges the copy's time; the data moves by reference
(:meth:`MemoryRegion.copy_to`: ``source`` → ``place`` per piece, DESIGN.md
§6h), so a copy between lazy regions moves pieces, not bytes.  ``copy()``
returns an event that fires when the bytes have landed and moves them at
completion time.  ``copy_runs()`` is the receive-batch form: it moves the
bytes at issue, returns the completion instants and leaves what happens at
them to the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.sim.events import Event
from repro.units import US, gib_per_s

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.memory import MemoryRegion
    from repro.sim.engine import Simulator

__all__ = ["DmaEngine"]

#: one end of a copy: a registered region and a byte offset in it
Span = Tuple["MemoryRegion", int]


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

    def copy(self, src: Span, dst: Span, nbytes: int) -> Event:
        """Queue a copy of *nbytes* from ``src`` to ``dst`` (``(region,
        offset)`` pairs, bounds-checked now); event fires at completion.

        The source is read at completion time, mirroring descriptor-based
        DMA; callers must not recycle the source (staging slot) until the
        event fires.
        """
        src_mr, src_off = src
        dst_mr, dst_off = dst
        src_mr.check(src_off, nbytes)
        dst_mr.check(dst_off, nbytes)
        now = self.sim.now
        start = now if now > self.busy_until else self.busy_until
        finish = start + nbytes / self.bandwidth
        self.busy_until = finish
        self.bytes_copied += nbytes
        self.ops += 1
        done = Event(self.sim)

        def _complete() -> None:
            src_mr.copy_to(src_off, dst_mr, dst_off, nbytes)
            done.succeed()

        self.sim.post_at(finish + self.latency, _complete)
        return done

    def copy_runs(self, segments) -> List[float]:
        """Scatter-gather batch: queue many copies with pre-computed issue
        instants.

        ``segments`` is a sequence of ``(src, dst, ops)`` where ``src`` /
        ``dst`` are the ``(region, offset)`` starts of a run of adjacent
        staging slots / user-buffer chunks, and ``ops`` lists the run's
        per-slot ``(nbytes, issue_time)`` pairs in issue order (issue times
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
        for (src_mr, s), (dst_mr, d), ops in segments:
            span = 0
            for nbytes, when in ops:
                start = when if when > busy else busy
                busy = start + nbytes / bw
                span += nbytes
                done.append(busy + lat)
            src_mr.copy_to(s, dst_mr, d, span)
            total += span
        self.busy_until = busy
        self.bytes_copied += total
        self.ops += len(done)
        return done
