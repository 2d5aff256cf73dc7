"""LoS and coverage probability for an outdoor base station serving indoor
users through a window, with built-in grid and Monte Carlo oracles.

The package root holds the entry points; every other public name is
imported from its module (for example ``o2i_los.los.p_los_grid``)."""

__version__ = "0.1.0"

from .coverage import FadingModel, LinkBudget, coverage_mc_oracle, coverage_probability
from .geometry import SceneGeometry
from .los import CORNER_RAY_ANGLE, GridSpec, critical_frequency, evaluate, p_los_closed
from .sweep import emit_csv, parse_config, run_sweep
