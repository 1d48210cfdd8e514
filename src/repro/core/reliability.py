"""Adaptive reliability machinery for the slow path (paper §III-C).

The paper's cutoff timer is ``N/B + α`` with a *fixed* slack α.  A fixed
slack is wrong in both directions: on a healthy fabric it waits far longer
than delivery ever takes (adding the full α to every lossy collective's
tail), and on a degraded fabric it can fire spuriously and thrash the
recovery ring.  This module provides:

* :class:`CutoffEstimator` — a TCP-RTO-style adaptive slack: an EWMA of
  the observed slack (actual data-phase duration minus the ``N/B`` ideal)
  plus a weighted mean-deviation term (RFC 6298's SRTT/RTTVAR), with
  exponential backoff applied whenever an op needed recovery and decayed
  again by clean ops.  Karn's rule applies: ops that entered recovery do
  not contribute samples (their elapsed time measures the slow path, not
  delivery).
* :class:`ReliabilityError` — the typed, diagnostic-rich failure raised
  when an op's recovery deadline expires; the alternative is a silent
  simulation hang.
* :func:`backoff_delay` — bounded exponential backoff with deterministic
  jitter (the caller passes its named RNG stream) used between recovery
  rounds so retries neither thrash nor synchronize across ranks.

The constants below are the slow path's and the liveness layer's fixed
policy; only the starting slack (``CollectiveConfig.cutoff_alpha``), the
adaptive switch, the recovery deadline and the failure policy are
configurable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ReliabilityError",
    "PeerDeadError",
    "CollectiveAbortedError",
    "CutoffEstimator",
    "backoff_delay",
]

#: clamp range of the adaptive cutoff slack
CUTOFF_ALPHA_MIN = 20e-6
CUTOFF_ALPHA_MAX = 2e-3
#: EWMA gains and deviation weight of the estimator (RFC 6298's α/β/K)
CUTOFF_GAIN = 0.125
CUTOFF_VAR_GAIN = 0.25
CUTOFF_VAR_WEIGHT = 4.0
#: re-arm slack between recovery rounds, its exponential backoff across
#: stalled rounds, the backoff's cap, and a deterministic jitter on each
#: re-arm as a fraction of the delay
RECOVERY_ALPHA = 200e-6
RECOVERY_BACKOFF = 2.0
RECOVERY_ALPHA_MAX = 2e-3
RECOVERY_JITTER = 0.25
#: how long a requester waits for a neighbor's FETCH_ACK before treating
#: it as unresponsive and escalating to the next neighbor
FETCH_ACK_TIMEOUT = 500e-6
#: fetch rounds with zero recovered chunks tolerated on one neighbor
#: before escalating to the next ring neighbor
FETCH_STALL_ROUNDS = 3
#: one PING round-trip allowance before a probe retry (scaled up by the
#: fabric diameter at probe time), and the unanswered PINGs before a peer
#: is confirmed dead
LIVENESS_PROBE_TIMEOUT = 500e-6
LIVENESS_PROBE_RETRIES = 3
#: floor on the no-progress suspicion timer; the effective timer is
#: ``max(this, 4 × CutoffEstimator.slack())``.  It must exceed
#: ``Fabric.sm_reroute_delay`` so a switch-down blackout cannot confirm a
#: live peer dead.
SUSPICION_TIMEOUT = 2e-3


class ReliabilityError(RuntimeError):
    """An operation's recovery deadline expired.

    Carries the diagnostic counters a post-mortem needs; ``str()`` renders
    them so a failing simulation explains itself instead of hanging.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        coll_id: int,
        kind: str,
        missing_chunks: int,
        n_chunks: int,
        elapsed: float,
        deadline: float,
        counters: Optional[Dict[str, int]] = None,
        phase: str = "recovery",
        retry_histogram: Optional[List[int]] = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.kind = kind
        self.missing_chunks = missing_chunks
        self.n_chunks = n_chunks
        self.elapsed = elapsed
        self.deadline = deadline
        self.counters = dict(counters or {})
        self.phase = phase
        #: fetch rounds spent per recovery invocation (op.retry_histogram)
        self.retry_histogram = list(retry_histogram or [])

    def __str__(self) -> str:
        base = super().__str__()
        diag = (
            f"rank={self.rank} coll_id={self.coll_id} kind={self.kind} "
            f"missing={self.missing_chunks}/{self.n_chunks} "
            f"elapsed={self.elapsed * 1e6:.1f}µs "
            f"deadline={self.deadline * 1e6:.1f}µs"
        )
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"{base} [{diag}{' ' + extra if extra else ''}]"


class PeerDeadError(RuntimeError):
    """The liveness layer confirmed one or more peers fail-stopped.

    Raised *inside* a rank's op controller when a blocking wait (barrier,
    activation, final handshake, fetch ACK) is resolved by death
    confirmation rather than by the expected message.  The controller
    catches it and either repairs (``FailurePolicy.DEGRADE``) or converts
    it into :class:`CollectiveAbortedError` (``FailurePolicy.ABORT``) —
    it never escapes a healthy run.
    """

    def __init__(self, message: str, *, rank: int, coll_id: int, phase: str, dead) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.phase = phase
        self.dead = frozenset(dead)

    def __str__(self) -> str:
        base = super().__str__()
        return (
            f"{base} [rank={self.rank} coll_id={self.coll_id} "
            f"phase={self.phase} dead={sorted(self.dead)}]"
        )


class CollectiveAbortedError(RuntimeError):
    """A collective was aborted because a participant fail-stopped and the
    communicator's :class:`~repro.core.communicator.FailurePolicy` is
    ``ABORT``.

    Unlike :class:`PeerDeadError` (an internal control-flow signal) this is
    the *user-facing* outcome: it names the dead ranks, the phase the
    survivor was in, and how much of the payload had landed.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int,
        coll_id: int,
        kind: str,
        phase: str,
        dead_ranks,
        missing_chunks: int = 0,
        n_chunks: int = 0,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.coll_id = coll_id
        self.kind = kind
        self.phase = phase
        self.dead_ranks = tuple(sorted(dead_ranks))
        self.missing_chunks = missing_chunks
        self.n_chunks = n_chunks

    def __str__(self) -> str:
        base = super().__str__()
        return (
            f"{base} [rank={self.rank} coll_id={self.coll_id} kind={self.kind} "
            f"phase={self.phase} dead_ranks={list(self.dead_ranks)} "
            f"missing={self.missing_chunks}/{self.n_chunks}]"
        )


class CutoffEstimator:
    """Adaptive cutoff slack (RFC 6298 adapted to delivery slack).

    ``slack()`` is what the op controller adds to the ``N/B`` ideal when
    arming the cutoff timer.  With no history it equals the configured
    static α, so the first collective behaves exactly like the paper's
    fixed-timer protocol; every clean completion then tightens it toward
    ``SRTT + K·RTTVAR`` (clamped to
    ``[CUTOFF_ALPHA_MIN, CUTOFF_ALPHA_MAX]``).
    """

    def __init__(self, alpha0: float) -> None:
        self.alpha0 = alpha0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.backoff = 1.0
        self.samples = 0
        self.spurious = 0
        #: adaptation trace: (sample_or_nan, resulting slack) per update
        self.trace: List[Tuple[float, float]] = []

    def slack(self) -> float:
        if self.srtt is None:
            base = self.alpha0
        else:
            base = self.srtt + CUTOFF_VAR_WEIGHT * self.rttvar
        # Floor before backing off (TCP's min-RTO still doubles): a
        # fully-tightened timer must still widen after spurious firings.
        return min(max(base, CUTOFF_ALPHA_MIN) * self.backoff, CUTOFF_ALPHA_MAX)

    def observe(self, sample: float) -> None:
        """Feed one clean (recovery-free) op's slack sample."""
        sample = max(float(sample), 0.0)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar += CUTOFF_VAR_GAIN * (abs(self.srtt - sample) - self.rttvar)
            self.srtt += CUTOFF_GAIN * (sample - self.srtt)
        # A clean op halves any recovery backoff (slow-start style decay).
        self.backoff = max(1.0, self.backoff / 2.0)
        self.samples += 1
        self.trace.append((sample, self.slack()))

    def on_recovery(self) -> None:
        """An op needed the slow path: back the timer off (Karn — no
        sample is taken, the elapsed time measured recovery, not delivery)."""
        self.backoff = min(self.backoff * 2.0, 64.0)
        self.spurious += 1
        self.trace.append((float("nan"), self.slack()))


def backoff_delay(
    round_idx: int,
    base: float,
    factor: float,
    cap: float,
    jitter_frac: float,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Bounded exponential backoff with deterministic jitter.

    ``base · factor^round`` clamped to ``cap``, plus a uniform jitter of up
    to ``jitter_frac`` of the clamped delay drawn from *rng* (a named
    :class:`~repro.sim.random.RandomStreams` stream, so reruns are
    bit-identical and ranks don't retry in lockstep).
    """
    delay = min(base * (factor ** max(round_idx, 0)), cap)
    if jitter_frac > 0.0 and rng is not None:
        delay += float(rng.uniform(0.0, jitter_frac * delay))
    return delay
