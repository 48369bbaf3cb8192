"""Exceptions shared across the package."""


class CapacityError(Exception):
    """An input is beyond the configured size bound of an exhaustive method.

    Raised instead of silently truncating or overflowing: subset enumeration
    past 64 points, candidate-line enumeration past the configured
    grid cap, the teaching-set census past its point cap, and integer work
    that would leave the checked int64 envelope of the vectorised fast
    paths.
    """


class CandidateFamilyError(AssertionError):
    """The candidate-line family failed to account for a separable zero-set.

    An internal fault of the candidate scan, not a usage error: a zero-set
    the subset oracle or the teaching rule classifies is missing from the
    scan, an unstable one lacks a unique vertex, or the teaching
    certificate fails: the forced points of a function do not single it
    out of its universe, which on a complete universe they always do.
    The message carries the witness zero-set.
    """
