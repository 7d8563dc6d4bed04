"""Exception types shared across the package and the checks of scalars: the
one float check, :func:`check_float`, which every float config field goes
through, the one integer check, :func:`check_integer`, which every bound on
an integer argument or config field goes through (depths, counts, indices,
dimensions), the depth and power-of-two checks built on it, and the check
of seeds.

Every exception here survives ``pickle`` with its type, message and
attributes, so that one raised in a worker process reaches the caller as
itself."""

import math
import numbers


class DomainError(ValueError):
    """An argument is outside the operation's admissible domain."""


def check_float(name, value, minimum=None, maximum=None, *, exclusive=False):
    """Raise DomainError unless ``value`` is a finite real number from
    ``minimum`` to ``maximum``, each bound omitted when None and the lower
    one strict when ``exclusive``: ``"{name} must be a real number, got
    {value!r}"``, then ``"{name} must be finite, got {value}"``, then
    ``"{name} must be >= {minimum}, got {value}"`` (``>`` when exclusive)
    or ``"{name} must be <= {maximum}, got {value}"``.
    Range checks alone let NaN or inf through, since NaN compares false and
    inf passes a lower bound; a string would fail them with a TypeError."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise DomainError(f"{name} must be finite, got {value}")
    if minimum is not None and (value <= minimum if exclusive else value < minimum):
        raise DomainError(f"{name} must be {'>' if exclusive else '>='} {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{name} must be <= {maximum}, got {value}")


def check_integer(name, value, minimum=None, maximum=None):
    """Raise DomainError unless ``value`` is a Python or numpy integer from
    ``minimum`` to ``maximum``, each bound omitted when None: ``"{name} must
    be >= {minimum}, got {value}"`` below the range, and ``<=`` above it.
    With ``name`` None the message starts at "must", for a caller that
    names the value itself (the CLI names the flag).
    Range checks alone let 2.5, inf and NaN through, to fail later (a float
    in ``range`` or ``&`` is a TypeError) instead of as a domain error."""
    must = "must" if name is None else f"{name} must"
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{must} be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{must} be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{must} be <= {maximum}, got {value}")


# The deepest depth: a depth n scales by 2.0 ** n, which overflows from
# n = 1024.
MAX_DEPTH = 1023


def check_depth(name, value):
    """Raise DomainError unless the depth ``value`` is an integer from 1 to
    ``MAX_DEPTH``."""
    check_integer(name, value, 1, MAX_DEPTH)


def check_power_of_two(name, value):
    """Raise DomainError unless ``value`` is an integer power of two, 1 included."""
    check_integer(name, value)
    if value < 1 or (value & (value - 1)) != 0:
        raise DomainError(f"{name} must be a positive power of two, got {value}")


def check_seed(seed):
    """Raise DomainError unless ``seed`` is None or a non-negative integer:
    the seeds ``np.random.default_rng`` takes, which raises a bare
    ValueError on a negative one."""
    if seed is not None and not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


class ShapeError(ValueError):
    """Mismatched grids, array shapes, or vector dimensions. Every grid
    mismatch reads ``"grid mismatch: A vs B"``, from
    ``fields._check_same_grid``."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration budget.

    ``index`` names the failed item when the solver runs a batch of
    independent problems (registration of several pairs in one loop).
    """

    def __init__(self, message, residual=None, iterations=None, index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.index = index

    def within(self, prefix, index=None) -> "ConvergenceError":
        """This failure as part of a larger one: the message
        ``"{prefix}: {self}"``, with the same residual and iterations and
        the given ``index``. Raise it ``from`` this error."""
        return ConvergenceError(f"{prefix}: {self}", self.residual, self.iterations, index)


class RankError(ValueError):
    """A sample matrix is rank-deficient for the requested dimension."""

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank

    def __reduce__(self):
        return type(self), (self.args[0], self.rank), self.__dict__


class FileFormatError(ValueError):
    """Base class for file parsing/serialization failures."""


class PgmFormatError(FileFormatError):
    """File does not carry a PGM magic number."""


class PgmParseError(FileFormatError):
    """Malformed PGM header; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset

    def __reduce__(self):
        return type(self), (self.reason, self.offset), self.__dict__


class FieldFileError(FileFormatError):
    """Base class for MFLD field-file failures."""


class BadMagicError(FieldFileError):
    pass


class BadVersionError(FieldFileError):
    pass


class TruncatedPayloadError(FieldFileError):
    pass


class UnsupportedChannelsError(FieldFileError):
    pass


class NonFiniteDataError(FieldFileError):
    pass


class NonOrthonormalBasisError(FieldFileError):
    """Basis-file components fail the orthonormality check on load."""
