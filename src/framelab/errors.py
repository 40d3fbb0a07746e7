"""Exception types shared across the package."""


class FramelabError(Exception):
    """Base class for framelab-specific failures."""


class EnumerationCapExceeded(FramelabError):
    """Raised when a retrieval certification is asked about more atoms than the cap.

    The certificates are exact because they decide every subset split, up
    to 2^(n-1) of them: the first n one by one, the rest by one walk over
    intervals of splits, from the pairs of the frame's at most C(n, d - 1)
    hyperplanes that cover the atoms, or the one interval of every split
    when the frame spans only within the table's margin.  The lifted map,
    the identity test and the d-subsets can answer ``holds`` first.  The
    cap bounds the atom count n and is checked before all of them: past it
    we refuse outright instead of silently sampling.
    """
