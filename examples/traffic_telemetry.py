#!/usr/bin/env python3
"""Switch telemetry: where do the bytes actually go? (paper Fig 12)

Runs the multicast Allgather and the ring Allgather on the same 32-host
fat-tree, scrapes every switch's port counters, and shows the ~2x data
movement saving plus the per-switch distribution.

Run:  python examples/traffic_telemetry.py
"""

import numpy as np

from repro.bench import format_table, make_fabric
from repro.core.baselines import ring_allgather
from repro.core.communicator import Communicator
from repro.units import KiB, pretty_bytes

P = 32
MSG = 64 * KiB


def main() -> None:
    data = [np.full(MSG, r % 251, dtype=np.uint8) for r in range(P)]

    f_mc = make_fabric(P)
    res = Communicator(f_mc).allgather(data)
    assert res.verify_allgather(data)

    f_ring = make_fabric(P)
    ring = ring_allgather(f_ring, data)
    assert ring.verify_allgather(data)

    mc_total = f_mc.switch_port_traffic(payload_only=True)
    ring_total = f_ring.switch_port_traffic(payload_only=True)
    print(f"Allgather of {pretty_bytes(MSG)} per rank across {P} hosts\n")
    print(format_table(
        ["algorithm", "switch-port bytes", "per NIC injected", "time"],
        [
            ("multicast", pretty_bytes(mc_total),
             pretty_bytes(f_mc.host_injected_bytes(payload_only=True) / P),
             f"{res.duration * 1e6:.0f} µs"),
            ("ring (P2P)", pretty_bytes(ring_total),
             pretty_bytes(f_ring.host_injected_bytes(payload_only=True) / P),
             f"{ring.duration * 1e6:.0f} µs"),
        ],
    ))
    print(f"\ntraffic saving: {ring_total / mc_total:.2f}x "
          "(paper Fig 12: up to 2x)\n")

    print("per-switch egress (multicast run) — the spine carries each "
          "buffer once:")
    rows = [(name, pretty_bytes(b))
            for name, b in sorted(f_mc.per_switch_egress().items())]
    print(format_table(["switch", "egress bytes"], rows))


if __name__ == "__main__":
    main()
