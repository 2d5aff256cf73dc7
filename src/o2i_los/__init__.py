"""LoS and coverage probability for an outdoor base station serving indoor
users through a window, with built-in grid and Monte Carlo oracles."""

__version__ = "0.1.0"

from .coverage import (
    CoverageResult,
    FadingModel,
    LinkBudget,
    coverage_mc_oracle,
    coverage_probability,
    mean_snr,
    nakagami_ccdf,
    p_los_at_distance,
    reg_lower_gamma,
    reg_upper_gamma,
)
from .diffraction import (
    SPEED_OF_LIGHT,
    diffraction_parameter,
    free_space_path_loss_db,
    fresnel_integrals,
    fresnel_radius,
    ked_excess_loss_db,
    total_path_loss_db,
    wavelength,
)
from .geometry import SceneGeometry, bs_position
from .los import (
    CORNER_RAY_ANGLE,
    LOS_CLEARANCE_RATIO,
    GridSpec,
    Clearances,
    LosEvaluation,
    clearances,
    critical_frequency,
    evaluate,
    p_los_closed,
    p_los_grid,
    p_los_grids,
    p_los_optical,
)
from .sweep import (
    ConfigError,
    RunRecord,
    SweepSpec,
    config_echo,
    emit_csv,
    parse_config,
    run_sweep,
)
