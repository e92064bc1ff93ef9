"""Exception types shared across the package."""


class SpinBondError(Exception):
    """Base class for all spinbond-specific errors."""


class ConfigError(SpinBondError):
    """Malformed or inconsistent experiment configuration (CLI exit code 2)."""


class StateSpaceCapError(SpinBondError):
    """Work above a supported cap (exit code 3).

    An exact computation above its state count or work budget; forward,
    birth-death or target-free dual Monte Carlo runs above their expected
    event budgets, in total or per run; or a block of ``mu-dyn`` dual runs
    past its share of moves or steps.
    """

    def __init__(self, required: int, cap: int, label: str = "state space"):
        self.required = required
        self.cap = cap
        self.label = label
        super().__init__(
            f"{label}: {required} needed, above the supported cap of {cap}"
        )

    def __reduce__(self):
        # Rebuilt from its fields, so that a worker process can raise it.
        return type(self), (self.required, self.cap, self.label)


class CensoringError(SpinBondError):
    """Too many replicas hit the simulation horizon before completing."""
