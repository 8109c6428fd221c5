"""Shared exception types, messages, the dense-tensor caps and the report cap.

The caps live here, beside CapExceeded, and every module reads them here at
call time: numpy-free code (the CLI's symbol checks, `counting`) and the
dense modules (`states`, `exchange`, `interferometer`) apply one set of
limits, and a test that patches a cap here moves every check.  A message
that more than one module raises lives here too, so that none imports
another for its text.
"""

#: dense storage only; anything bigger is out of desk scale
MAX_DIM = 2 ** 24
#: numpy arrays have at most 64 axes: one per slot, and np.indices adds one
MAX_SLOTS = 63
#: characters a report may hold: only check_report_size reads it
MAX_REPORT_CHARS = 2 * 10 ** 7
#: the vacuum has no labeled state and no particles (fock, emergence, the CLI)
VACUUM = "cannot build a labeled state for the vacuum"


class CapExceeded(Exception):
    """A requested object is larger than the configured desk-scale cap."""


def check_dense_dim(d: int, n: int) -> int:
    """d^N, or CapExceeded when N slots of d modes do not fit a dense tensor."""
    if n > MAX_SLOTS:
        raise CapExceeded(
            f"N = {n} slots exceed the dense-tensor cap of {MAX_SLOTS} "
            "(numpy's 64-axis limit)"
        )
    dim = d ** n
    if dim > MAX_DIM:
        raise CapExceeded(f"d^N = {d}^{n} exceeds the dense-storage cap {MAX_DIM}")
    return dim


def check_report_size(size: int, what: str) -> None:
    """CapExceeded when `size`, an upper bound on the characters of `what`, passes the cap.

    Every command whose report can grow without limit calls this with its
    estimate before it builds anything.
    """
    if size > MAX_REPORT_CHARS:
        raise CapExceeded(
            f"{what} is up to {size} characters, over the report cap of {MAX_REPORT_CHARS}"
        )
