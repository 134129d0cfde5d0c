"""Exception types shared across the package.

The CLI maps ConfigError to exit code 2, and NumericalGuardError (or any
subclass) and any other ValueError raised inside an experiment run to exit
code 3. Every rejection names the parameters that decide it: a step of a
run reports a guard as it is, and any other error as a ConfigError, reading
`<step> (<key>=<value>, ...): <cause>`.
"""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key, bad value, bad file)."""


class NumericalGuardError(RuntimeError):
    """A numerical safety guard tripped; results would be meaningless."""


class GridEscapeError(NumericalGuardError):
    """Significant amplitude reached the edge of a position grid."""


class TraceCollapseError(NumericalGuardError):
    """Imaginary-time damping annihilated the state below representable size."""
