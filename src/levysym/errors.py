"""Exception types shared across the package."""


class UnitMismatch(ValueError):
    """Two lattices differ in unit or tag: two measures, or a jump rule and its start."""


class BudgetExceeded(RuntimeError):
    """A truncation or iteration budget was exhausted before the target tolerance."""


class DomainError(ValueError):
    """A symbol was evaluated outside its declared state space."""


class UnsupportedSpec(TypeError):
    """An operation received a symbol variant it does not support."""


class DegenerateSample(ValueError):
    """A statistic that needs at least two observations got fewer."""


class RepresentationLost(TypeError):
    """An exact-lattice operation received values already projected to floats."""


class QuadratureUnderresolved(BudgetExceeded):
    """Fourier coefficients near the truncation order are too large to trust."""


class ViolatedDominance(RuntimeError):
    """The dominance rewrite produced a zero-coefficient with positive real part."""
