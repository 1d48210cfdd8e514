"""Which layer each source file of ``repro`` belongs to, and the cProfile
self time of a run summed by layer.

Files on the four workloads' hot path are listed one by one, so a new file
there fails the self-test until someone decides its layer; a trailing ``/``
claims a whole package.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from benchmarks.perf.metrics import LAYERS

__all__ = ["LAYER_FILES", "layer_of", "self_time_by_layer"]

#: layer -> paths under ``src/repro/``
LAYER_FILES: Dict[str, tuple] = {
    "sim.engine": ("sim/__init__.py", "sim/engine.py", "sim/events.py",
                   "sim/process.py", "sim/primitives.py", "sim/random.py"),
    "sim.fastforward": ("sim/fastforward.py", "sim/parallel.py",
                        "net/plan/partition.py"),
    "net.link": ("net/link.py", "net/switch.py", "net/packet.py",
                 "net/faults.py"),
    "net.nic": ("net/nic.py", "net/dma.py"),
    "net.memory": ("net/memory.py",),
    "net.fabric": ("net/__init__.py", "net/fabric.py", "net/topology.py",
                   "net/plan/__init__.py", "net/plan/plan.py",
                   "net/plan/planners.py"),
    "net.inc": ("net/inc.py", "core/baselines/"),
    "core.progress": ("core/progress.py", "core/ops.py", "core/staging.py",
                      "core/bitmap.py", "core/chunking.py",
                      "core/sequencer.py", "core/subgroups.py",
                      "core/costmodel.py"),
    "core.control": ("core/control.py",),
    "core.reliability": ("core/reliability.py",),
    "core.communicator": ("core/__init__.py", "core/communicator.py",
                          "core/request.py"),
    "obs": ("obs/",),
    # Imported, never executed by these workloads.
    "other": ("__init__.py", "__main__.py", "units.py", "bench/", "dpa/",
              "models/", "tune/", "workloads/"),
}

_BY_PATH = {path: layer for layer, paths in LAYER_FILES.items()
            for path in paths}


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro/``, or ``None`` if the map
    does not name it."""
    relpath = relpath.replace(os.sep, "/")
    layer = _BY_PATH.get(relpath)
    while layer is None and "/" in relpath:
        relpath = relpath.rsplit("/", 1)[0]
        layer = _BY_PATH.get(relpath + "/")
    return layer


def self_time_by_layer(profile, repro_root: str) -> Dict[str, float]:
    """cProfile ``tottime`` summed into :data:`LAYERS`.  C functions and
    numpy count as ``builtins``; anything else outside ``repro`` (stdlib,
    this harness) lands in ``other``."""
    root = os.path.join(os.path.realpath(repro_root), "")
    numpy_dir = f"{os.sep}numpy{os.sep}"
    layer_of_file: Dict[str, str] = {}
    totals = dict.fromkeys(LAYERS, 0.0)
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            totals["builtins"] += entry.inlinetime
            continue
        layer = layer_of_file.get(code.co_filename)
        if layer is None:
            filename = os.path.realpath(code.co_filename)
            if filename.startswith(root):
                layer = layer_of(filename[len(root):]) or "other"
            else:
                layer = "builtins" if numpy_dir in filename else "other"
            layer_of_file[code.co_filename] = layer
        totals[layer] += entry.inlinetime
    return totals
