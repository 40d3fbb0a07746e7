"""Exception types shared across the package."""


class FramelabError(Exception):
    """Base class for framelab-specific failures."""


class EnumerationCapExceeded(FramelabError):
    """Raised when a retrieval certification is asked about more atoms than the cap.

    The certificates are exact because they decide every subset split, up
    to 2^(n-1) of them: the first ones one by one, the rest through the
    pairs of the frame's at most C(n, d - 1) hyperplanes that cover the
    atoms, or one by one again when the frame spans only within the
    table's margin.  A real frame with n >= d(d + 1)/2, or a complex one
    with n >= d^2, is first tested on its lifted symmetric or Hermitian
    map, which can only answer ``holds``.  The cap
    bounds the atom count n and is checked before either: past it we
    refuse outright instead of silently sampling.
    """
