"""Device descriptions: the BlueField-3 DPA and the host-CPU baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import MiB, gbit_per_s

__all__ = ["DpaSpec", "CpuSpec", "DPA_BF3", "CPU_EPYC_7413"]


@dataclass(frozen=True)
class DpaSpec:
    """A Datapath Accelerator complex (paper §II-C)."""

    n_cores: int = 16
    threads_per_core: int = 16
    freq_hz: float = 1.8e9
    llc_bytes: int = int(1.5 * MiB)
    #: DRAM interfaced through the BlueField ARM subsystem (staging area)
    dram_bytes: int = 16 * 1024 * MiB

    @property
    def total_threads(self) -> int:
        return self.n_cores * self.threads_per_core


@dataclass(frozen=True)
class CpuSpec:
    """Host CPU used by the software-datapath baseline (Fig 5)."""

    n_cores: int = 24
    freq_hz: float = 2.6e9
    name: str = "AMD EPYC 7413"


#: The DPA testbed parts (paper §VI-A).
DPA_BF3 = DpaSpec()
CPU_EPYC_7413 = CpuSpec()

#: Link of the DPA testbed: one 200 Gbit/s BlueField-3 port.
DPA_TESTBED_LINK = gbit_per_s(200)
