"""Exception types raised across the library."""


class HamstatError(Exception):
    """Base class for all library-specific errors."""


class InputError(HamstatError):
    """A command-line argument or input file is malformed or out of range."""


class DegenerateLattice(HamstatError):
    """Lattice generators are collinear (zero-area fundamental cell)."""


class SlopeNotInDualLattice(HamstatError):
    """Requested angle slope is not a dual-lattice point."""


class FrequencyBoxTooLarge(HamstatError):
    """Slope too large for the lattice: the frequency search box is over its cap."""


class EmptySpectrum(HamstatError):
    """A torus spec carries no nonzero Fourier coefficient."""


class ResonantFrequency(HamstatError):
    """Frequency sits at the pseudo-periodic resonance of the basis formula."""


class DegenerateMetric(HamstatError):
    """Induced metric below tolerance; curvature quantities undefined."""


class SingularInput(HamstatError):
    """Matrix argument is singular or outside the expected group."""


class ConvergenceFailure(HamstatError):
    """A factorization's residual exceeds the requested tolerance, or the
    Lax flow needs steps shorter than allowed or leaves the finite range."""


class OutsideBigCell(HamstatError):
    """Loop admits no negative/positive splitting (singular Toeplitz system)."""


class NotInBigCell(HamstatError):
    """Pointwise potential extraction hit a non-factorizable lift value."""


class LoopAliasing(HamstatError):
    """Loop sample count too small: the spectrum has not decayed at its top,
    or the angle range is so wide that e^(|h|/2) overflows."""


class PathIntegrationFailure(HamstatError):
    """The potential's path integral has a rounding bound above the accepted
    one, as e^(|h|/2) swamps the potential, or its angle is not finite."""


class StepSizeUnderflow(HamstatError):
    """Flow integrator step fell below the representable minimum."""


class NoRealSolution(HamstatError):
    """Parameter ratios admit no angle solution in the required range."""
