"""Exception types shared across the package."""


class LayerQuenchError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(LayerQuenchError):
    """Bad configuration or malformed input (CLI exit code 2)."""


class UnsupportedStackingError(LayerQuenchError):
    """Operation only defined for one stacking pattern."""


class NonConvergenceError(LayerQuenchError):
    """Eigensolver failed to converge; message carries k and config."""


class DegenerateSpectrumError(LayerQuenchError):
    """Identity requested on a degenerate spectrum where it is undefined."""


class SingularPointError(LayerQuenchError):
    """Evaluation at a gap-closing momentum (some eigenvalue is zero)."""


class GaplessError(LayerQuenchError):
    """Spectral gap closes somewhere on the sampling grid."""


class DegenerateFieldError(LayerQuenchError):
    """Dynamical field vanishes at a contour point."""


class NonQuantizedWindingError(LayerQuenchError):
    """Accumulated angle or curvature sum fails to round to an integer."""


class TrivialRegimeError(LayerQuenchError):
    """No estimator zero curve exists; configuration is in the trivial regime."""


class InconsistentSampleError(LayerQuenchError):
    """Input sample magnitude lies outside the invertible range."""


class InconsistentInvariantError(LayerQuenchError):
    """Two independent integer oracles disagree, or one of them refuses."""
