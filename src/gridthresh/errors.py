"""Exceptions shared across the package."""


class CapacityError(Exception):
    """An input is beyond the configured size bound of an exhaustive method.

    Raised instead of silently truncating or overflowing: subset enumeration
    past 64 points, candidate-line enumeration past the configured
    grid cap, the teaching-set census past its point cap, the CLI's side
    and b-file caps, and four limits of the exact kernels: a weighted
    Mertens sum M_j(x) whose isqrt(x) is past the sieve limit, a point of
    the pass over mu at or past 2^31 (where one term d^2 mu(d) may leave
    int64; its sieve would hold 2^31 entries), a block sum past the
    residue range, and a blocked-kernel side at or above 2^63.
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
