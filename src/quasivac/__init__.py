"""quasivac: minimization of ladder-operator Hamiltonians over pure Gaussian states.

The package rewrites a polynomial Hamiltonian in Bogoliubov-transformed
operators, descends the expectation value over the Gaussian family, and
certifies that at the minimum only a constant, a particle-conserving
quadratic block and higher-order terms survive, so the quadratic block's
eigenvalues read off the quasiparticle spectrum.
"""

from .bogoliubov import BogoliubovMap, Generator, compose, from_generator, inverse
from .errors import QuasivacError
from .fock import FockBasis, ground_energy, quantize, state_of_map
from .variational import (
    CertificationReport,
    MinimizationResult,
    MinimizeOptions,
    Mode,
    RunStatus,
    certify,
    minimize,
    residual_blocks,
)
from .wick import Statistics, TransformedBlocks, WickPolynomial

__version__ = "0.1.0"

__all__ = [
    # polynomials and their blocks
    "Statistics",
    "TransformedBlocks",
    "WickPolynomial",
    # Bogoliubov maps
    "BogoliubovMap",
    "Generator",
    "compose",
    "from_generator",
    "inverse",
    # minimization and certification
    "CertificationReport",
    "MinimizationResult",
    "MinimizeOptions",
    "Mode",
    "RunStatus",
    "certify",
    "minimize",
    "residual_blocks",
    # dense Fock oracle
    "FockBasis",
    "ground_energy",
    "quantize",
    "state_of_map",
    # errors
    "QuasivacError",
]
