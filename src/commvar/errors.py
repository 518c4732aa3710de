"""Exception hierarchy shared by all modules."""


class CommVarError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(CommVarError):
    """Operands do not have compatible shapes."""


class RankDeficient(CommVarError):
    """A vector family is linearly dependent at working tolerance."""


class InvalidTuple(CommVarError):
    """A matrix or tuple fails a structure or commutation check."""


class NotHermitian(InvalidTuple):
    pass


class NotUnitary(InvalidTuple):
    pass


class NotSkewHermitian(InvalidTuple):
    pass


class NotSymmetric(InvalidTuple):
    pass


class NotCommuting(InvalidTuple):
    """A matrix tuple fails the pairwise commutation test."""


class NoConvergence(CommVarError):
    """A diagonalization ended above its required residual."""


class NotOrthogonal(CommVarError):
    """Configuration labels are not mutually orthogonal."""


class IndexOutOfRange(CommVarError):
    """A based map refers to an index outside its target set."""


class SingularAtOne(CommVarError):
    """Inverse Cayley transform applied to a matrix with eigenvalue one."""


class WrongStratum(CommVarError):
    """Chart requested on an element outside the open stratum."""


class NotRealizable(CommVarError):
    """Eigenspaces are not complexifications of real subspaces."""


class ZeroTuple(CommVarError):
    """Normalization of an (essentially) zero tuple."""


class NotOddPrime(CommVarError):
    pass
