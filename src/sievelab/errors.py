"""Exception hierarchy shared across the package.

Two broad families matter to the CLI: configuration problems (bad inputs,
incompatible specs) exit with code 2, resource/convergence problems exit
with code 3.
"""


class SievelabError(Exception):
    """Base class for all package errors."""


class ConfigError(SievelabError):
    """Invalid configuration or arguments."""


class DimensionMismatch(ConfigError):
    """Operands have incompatible dimensions."""


class NotSymmetric(ConfigError):
    """Generator multiset where some g lacks g^-1 at equal multiplicity."""


class MissingIdentity(ConfigError):
    """Generator multiset without the identity."""


class CompositeModulus(ConfigError):
    """A modulus that was required to be prime is not."""


class DomainError(ConfigError):
    """Numeric argument outside its mathematical domain."""


class ArityMismatch(ConfigError):
    """Polynomial arity does not match the number of entry coordinates."""


class DegreeUnsupported(ConfigError):
    """Exact verdict requested above the supported degree."""


class InsufficientData(ConfigError):
    """Not enough usable points to fit."""


class ResourceError(SievelabError):
    """Budget or convergence failures."""


class BudgetExceeded(ResourceError):
    """A state-count or enumeration budget was exhausted."""


class UndecidedMembership(ResourceError):
    """An exact hit probability hit an UNKNOWN oracle verdict."""


class EnumerationUnavailable(ResourceError):
    """Operation needs a full quotient enumeration that is not available."""


class ConvergenceFailure(ResourceError):
    """Iterative eigensolver did not reach the residual tolerance."""


class UnknownRateExceeded(ResourceError):
    """Monte Carlo run aborted: UNKNOWN verdict rate above the cap."""
