"""Exception types shared across the toolkit."""


class HopfCliffordError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HopfCliffordError):
    """Bad scenario data: unknown builtin, unparsable file, dangling references."""


class PreconditionError(HopfCliffordError):
    """A mathematical precondition on the input is not met."""


class SizeLimitError(PreconditionError):
    """Group closure exceeded the configured size cap."""


class FactorizationError(PreconditionError):
    """Unique factorization inside the ambient group failed."""


class NormalityError(PreconditionError):
    """Subalgebra is not a normal Hopf subalgebra."""


class SemisimplicityError(PreconditionError):
    """Regular trace form is degenerate: the algebra is not semisimple."""


class NotACharacterError(HopfCliffordError):
    """Multiplicities came out negative or non-integral."""


class NumericDegeneracyError(HopfCliffordError):
    """Random spectral splitting kept colliding after the retry budget."""


class ConsistencyError(HopfCliffordError):
    """An internal cross-check that must hold by construction failed."""


class TheoremViolationError(HopfCliffordError):
    """A proven identity failed; this always indicates an implementation bug."""
