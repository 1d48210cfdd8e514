"""Keep the folds from taking a phase, one of them or both.

The data fold (DESIGN.md §6d) and the control-plane fold (§6i) take every
phase their gates let through.  A test of what one fold leaves to the
packet path keeps just that fold out; a test that the production engine's
packet path is the reference's keeps both out.  A test that only wants the
packet level as its oracle runs ``Fabric(reference=True)`` instead.
"""


def unfold(comm, *, data: bool = True, control: bool = True) -> None:
    """Keep *comm*'s data fold (*data*) and control fold (*control*) from
    taking any phase."""
    if control:
        comm.cf.at = lambda *args: None
        comm.cf.activate = lambda *args: False
    if data:
        comm.ff.try_advance = lambda *args: None
