"""Tracepoint catalogue and trace-event schema validation.

Every tracepoint emitted anywhere in the stack must be registered here,
under a ``subsystem.verb`` name (lowercase, exactly one dot).  The
catalogue is the single source of truth consumed by

* ``tools/check_tracepoints.py`` — the CI lint that scans the source for
  ``.instant(...)`` / ``.complete(...)`` / ``.counter(...)`` call sites
  and rejects unregistered or ill-formed names, and
* :func:`validate_event` — schema validation of exported Chrome
  trace-event dicts, used by the golden tests.
"""

from __future__ import annotations

import re
from typing import Any, Dict

__all__ = ["NAME_RE", "TRACEPOINTS", "validate_event"]

#: ``subsystem.verb``: lowercase subsystem, one dot, lowercase verb
#: (underscores allowed in the verb only).
NAME_RE = re.compile(r"^[a-z]+\.[a-z][a-z_]*$")

#: name -> (phase, description).  phase is the Chrome trace phase the
#: tracepoint uses: 'X' complete span, 'i' instant, 'C' counter.
TRACEPOINTS: Dict[str, Any] = {
    # -- simulation engine ------------------------------------------------
    "engine.dispatch": ("C", "events dispatched per virtual-time bin"),
    # -- links / switches -------------------------------------------------
    "link.busy": ("X", "port busy interval for one packet"),
    "link.drop": ("i", "packet dropped by the channel fault model"),
    # -- NIC --------------------------------------------------------------
    "nic.doorbell": ("i", "send doorbell rung for a WR batch (args: wrs)"),
    "nic.cqe": ("i", "completion queue entry delivered to the host"),
    "nic.rnr": ("i", "receiver-not-ready drop (no buffer posted)"),
    "nic.outstanding": ("C", "in-flight send batches for a rank"),
    # -- host datapath ----------------------------------------------------
    "dma.copy": ("X", "staging-slot to user-buffer copy"),
    "staging.hold": ("C", "staging-ring slots held (received, not copied)"),
    # -- control plane ----------------------------------------------------
    "comm.submit": ("i", "collective submitted on the unified surface "
                         "(args: kind, handle)"),
    "seq.activate": ("i", "sequencer activation forwarded to successor"),
    "phase.sync": ("X", "collective start -> multicast group synced"),
    "phase.multicast": ("X", "sync done -> all data chunks landed"),
    "phase.handshake": ("X", "data done -> final completion handshake"),
    # -- reliability ------------------------------------------------------
    "reliability.arm": ("i", "cutoff timer armed (args: timeout seconds)"),
    "reliability.fire": ("i", "cutoff fired with chunks still missing"),
    "reliability.recover": ("X", "one recovery round (fetch slow path)"),
    "reliability.fetch": ("i", "fetch round issued to a parent/neighbor"),
    "reliability.escalate": ("i", "fetch escalated to an alternate neighbor"),
    "reliability.timeout": ("i", "fetch ACK timed out; round re-armed"),
    # -- fail-stop fault tolerance ----------------------------------------
    "liveness.suspect": ("i", "peer silent past the suspicion timer "
                              "(args: rank, phase)"),
    "liveness.confirm": ("i", "peer confirmed fail-stopped (args: rank, via)"),
    "repair.replan": ("i", "membership/topology re-planned around a death"),
    "repair.ctrl_migrate": ("i", "control plane migrated to a surviving rail"),
    "repair.void": ("i", "chunks voided as unrecoverable (args: chunks)"),
    "engine.watchdog": ("i", "simulator no-progress watchdog fired"),
    "engine.ff_enter": ("i", "flow fast-forward fold began (args: chunks)"),
    "engine.ff_exit": ("i", "flow fast-forward fold committed "
                            "(args: until, send_done)"),
    "engine.ff_miss": ("i", "flow fast-forward phase declined (args: reason)"),
    "engine.ctrl_fold": ("i", "control-plane phase folded or declined "
                              "(args: phase, messages | miss)"),
    "engine.inc_fold": ("i", "INC reduction pass folded or declined "
                             "(args: psns | miss)"),
    # -- DPA scheduler ----------------------------------------------------
    "dpa.compute": ("X", "DPA thread occupies a core pipe for a segment"),
}

_VALID_PH = {"X", "i", "C", "M"}


def validate_event(ev: dict) -> None:
    """Raise ``ValueError`` if a Chrome trace-event dict is malformed.

    Checks the fields chrome://tracing / Perfetto rely on, plus our own
    conventions (registered names, per-phase required fields).
    """
    if not isinstance(ev, dict):
        raise ValueError(f"event is not a dict: {ev!r}")
    ph = ev.get("ph")
    if ph not in _VALID_PH:
        raise ValueError(f"bad phase {ph!r} in {ev!r}")
    for field in ("pid", "tid"):
        if not isinstance(ev.get(field), int):
            raise ValueError(f"missing/invalid {field} in {ev!r}")
    name = ev.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"missing name in {ev!r}")

    if ph == "M":  # metadata: process_name / thread_name etc.
        if name not in ("process_name", "thread_name", "process_sort_index"):
            raise ValueError(f"unknown metadata record {name!r}")
        if not isinstance(ev.get("args"), dict):
            raise ValueError(f"metadata without args: {ev!r}")
        return

    if name not in TRACEPOINTS:
        raise ValueError(f"unregistered tracepoint {name!r}")
    if not NAME_RE.match(name):
        raise ValueError(f"tracepoint {name!r} violates subsystem.verb naming")
    want_ph = TRACEPOINTS[name][0]
    if ph != want_ph:
        raise ValueError(f"{name!r} must use phase {want_ph!r}, got {ph!r}")

    ts = ev.get("ts")
    if not isinstance(ts, (int, float)) or ts < 0:
        raise ValueError(f"missing/negative ts in {ev!r}")
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            raise ValueError(f"complete event without dur: {ev!r}")
    elif ph == "i":
        if ev.get("s") not in ("t", "p", "g"):
            raise ValueError(f"instant event without scope: {ev!r}")
    elif ph == "C":
        args = ev.get("args")
        if not isinstance(args, dict) or not isinstance(
                args.get("value"), (int, float)):
            raise ValueError(f"counter event without args.value: {ev!r}")
