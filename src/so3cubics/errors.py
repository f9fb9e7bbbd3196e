"""Exception types raised by the numerical routines and the CLI."""


class DegeneracyError(Exception):
    """Base class for numerical degeneracies (CLI exit code 3)."""


class DegenerateFrame(DegeneracyError):
    """The two vectors handed to a frame construction are (nearly) parallel."""


class ZeroDirection(DegeneracyError):
    """A direction vector with (nearly) zero norm cannot define a frame."""


class StepTooLarge(DegeneracyError):
    """Integration step produced unacceptable drift in a conserved quantity."""


class DegenerateB(DegeneracyError):
    """The oscillatory perturbation component vanishes; closed-form
    reconstruction formulas that divide by its amplitude do not apply."""


class DegenerateThirdDerivative(DegeneracyError):
    """The third derivative of the quadratic vanishes somewhere on the
    interval, so the reconstruction quadrature is singular."""


class ConfigError(Exception):
    """Invalid experiment configuration (CLI exit code 2)."""


class OutOfDomain(ValueError):
    """A closed form was asked for at a time that is not finite, or at
    which its value is not (CLI exit code 2)."""
