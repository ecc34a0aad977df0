"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration (bad scenario, grid, or parameter)."""


class CapacityError(RuntimeError):
    """An exact computation is out of reach at this size: a spectral law
    that fails its accuracy guard above the uniformization cap or outgrows
    its eigenvector budget, a matching above its size cap, or a block-count
    law whose support is above its cap."""


class DiagnosticError(RuntimeError):
    """A numerical diagnostic failed (insufficient Monte Carlo budget,
    nonconvergence, or an exact series that fails its accuracy guard)."""
