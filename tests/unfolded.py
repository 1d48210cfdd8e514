"""The production engine at packet level, for tests of what runs beneath
the folds.

The data and control folds (DESIGN.md §6c) take every phase their gates
let through, so on a clean fabric the default engine's packet trains,
look-ahead delivery, CQE batches and packet-level control plane are only
reached where a gate declines.  Tests of those mechanisms keep the folds
from taking a phase instead.
"""


def unfold(comm, *, data: bool = True, control: bool = True) -> None:
    """Keep *comm*'s data fold (*data*) and control fold (*control*) from
    taking any phase."""
    if control:
        comm.cf.at = lambda *args: None
        comm.cf.activate = lambda *args: False
    if data:
        comm.ff.try_advance = lambda *args: None
