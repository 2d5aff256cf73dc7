"""Planar geometry of a square room, its window, and an outdoor base station.

Fixed coordinate frame used by the whole package: the window wall is the
line x = 0 with the window centred on the origin; the room occupies
x in [0, L], y in [-L/2, L/2] for side length L; the base station sits
in front of the wall at x < 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

@dataclass(frozen=True)
class SceneGeometry:
    """Square room with a centred window and a base station out front.

    room_side: interior side length in meters.
    window_width: width of the window opening in meters, centred on the wall.
    bs_distance: perpendicular standoff of the base station from the wall.
    bs_angle: aspect angle in radians, measured from the window-centre normal.
    """

    room_side: float
    window_width: float
    bs_distance: float
    bs_angle: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():  # numpy scalars and ints are held as the floats they round to
            if type(value) is not float and isinstance(value, numbers.Real):
                try:
                    value = float(value)
                except OverflowError:  # an int past the float range: the field's own check names it
                    value = math.inf if value > 0 else -math.inf
                object.__setattr__(self, name, value)
            if name != "bs_angle" and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.window_width > self.room_side:
            raise ValueError("window exceeds room")
        if not abs(self.bs_angle) < math.pi / 2:
            raise ValueError("bs_angle must lie strictly inside (-90, 90) degrees")
        if not math.isfinite(self.bs_distance * math.tan(self.bs_angle)):
            raise ValueError("base-station position must be finite")


def bs_position(scene: SceneGeometry) -> tuple[float, float]:
    """Base station location (x, y): standoff bs_distance at aspect angle bs_angle.

    Placed so that its straight-line distance to the window centre is
    bs_distance / cos(bs_angle).
    """
    return -scene.bs_distance, -scene.bs_distance * math.tan(scene.bs_angle)

