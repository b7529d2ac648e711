"""Exception types shared across the package."""


class QuasivacError(Exception):
    """Base class for package-specific errors."""


class IndexRangeError(QuasivacError, ValueError):
    """A mode index lies outside 1..n_modes."""


class StatisticsMismatchError(QuasivacError, ValueError):
    """Operands carry incompatible statistics or mode counts."""


class DegreeCapError(QuasivacError, ValueError):
    """A polynomial exceeds the supported total degree."""


class HermiticityError(QuasivacError, ValueError):
    """An operation requires a Hermitian polynomial."""


class ParityError(QuasivacError, ValueError):
    """Polynomial parity is not admissible for the requested operation."""


class InvalidMapError(QuasivacError, ValueError):
    """Matrix data does not define a valid Bogoliubov transformation."""


class InvalidGeneratorError(QuasivacError, ValueError):
    """Generator data violates its symmetry or statistics constraints."""


class DimensionCapError(QuasivacError, ValueError):
    """A Fock-space construction exceeds the configured dimension cap."""


class TailToleranceError(QuasivacError, ValueError):
    """The configured occupation cutoff cannot meet the tail tolerance."""


class SpecFormatError(QuasivacError, ValueError):
    """A Hamiltonian spec file is malformed."""
