"""Equirectangular tile geometry.

A 360-degree frame is cut into a u_h x u_v grid of equal rectangular tiles,
indexed by (col, row) starting at (1, 1). A user looking at a given direction
needs every tile whose rectangle overlaps the field of view, widened by a
safety margin on all four sides. Yaw wraps around the horizontal seam; pitch
is clamped at the poles.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple


def _as_int(name, value) -> int:
    """`value` as an int: the one integer rule of the config fields and
    the trial seed. An integral float reads as its int (16.0 is 16); a
    bool, a fraction, inf and nan are refused, not rounded, and so is a
    value that is no number. Each refusal is a ValueError naming `name`."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    if isinstance(value, bool) or value % 1:
        raise ValueError(f"{name}: {value!r} is not an integer")
    return int(value)


def _as_float(name, value) -> float:
    """`value` as a finite float: the one real-number rule of the config
    fields. An int reads as its float; a bool, a value that is no number,
    inf, nan and an int too large for a float are refused, each with a
    ValueError naming `name`."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} has the wrong type: {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, not {real!r}")
    return real


def _set_fields(obj, rule, *names):
    """Pass each named field of the frozen dataclass `obj` through `rule`
    (`_as_int` or `_as_float`)."""
    for name in names:
        object.__setattr__(obj, name, rule(name, getattr(obj, name)))


@dataclass(frozen=True)
class TilingConfig:
    """Tile grid plus field-of-view extents, all in degrees.

    Parameters
    ----------
    u_h, u_v : int
        Number of tile columns / rows.
    fov_h_deg, fov_v_deg : float
        Field-of-view width and height.
    margin_deg : float
        Extra angle added on each of the four sides of the FoV.
    """

    u_h: int
    u_v: int
    fov_h_deg: float
    fov_v_deg: float
    margin_deg: float = 0.0

    def __post_init__(self):
        _set_fields(self, _as_int, "u_h", "u_v")
        _set_fields(self, _as_float, "fov_h_deg", "fov_v_deg", "margin_deg")
        if self.u_h < 1 or self.u_v < 1:
            raise ValueError("grid must have at least one column and one row")
        if not (0.0 < self.fov_h_deg <= 360.0):
            raise ValueError("fov_h_deg must be in (0, 360]")
        if not (0.0 < self.fov_v_deg <= 180.0):
            raise ValueError("fov_v_deg must be in (0, 180]")
        if self.margin_deg < 0.0:
            raise ValueError("margin_deg must be >= 0")

    @property
    def tile_width_deg(self) -> float:
        return 360.0 / self.u_h

    @property
    def tile_height_deg(self) -> float:
        return 180.0 / self.u_v


class TileId(NamedTuple):
    col: int
    row: int


class ViewDirection(NamedTuple):
    yaw_deg: float
    pitch_deg: float


def _check_direction(d: ViewDirection):
    if not (0.0 <= d.yaw_deg < 360.0):
        raise ValueError(f"yaw_deg {d.yaw_deg} outside [0, 360)")
    if not (0.0 <= d.pitch_deg <= 180.0):
        raise ValueError(f"pitch_deg {d.pitch_deg} outside [0, 180]")


def _wrap_intervals(center: float, width: float):
    """Yaw intervals (possibly two) covered by [center-width/2, center+width/2] mod 360."""
    if width >= 360.0:
        return [(0.0, 360.0)]
    lo = (center - width / 2.0) % 360.0
    hi = lo + width
    if hi <= 360.0:
        return [(lo, hi)]
    return [(lo, 360.0), (0.0, hi - 360.0)]


def compute_tile_set(direction: ViewDirection, cfg: TilingConfig) -> set:
    """Tiles whose rectangle overlaps the margin-extended FoV with nonzero area.

    The extended FoV is (fov_h + 2*margin) x (fov_v + 2*margin) centered at
    `direction`. Overlap is open-interval: touching exactly at a grid line does
    not include a tile. Horizontal wrap, vertical clamp.
    """
    _check_direction(direction)
    ext_w = cfg.fov_h_deg + 2.0 * cfg.margin_deg
    ext_h = cfg.fov_v_deg + 2.0 * cfg.margin_deg

    yaw_ivs = _wrap_intervals(direction.yaw_deg, ext_w)
    p_lo = max(0.0, direction.pitch_deg - ext_h / 2.0)
    p_hi = min(180.0, direction.pitch_deg + ext_h / 2.0)

    tw = cfg.tile_width_deg
    th = cfg.tile_height_deg

    cols = set()
    for (a, b) in yaw_ivs:
        for col in range(1, cfg.u_h + 1):
            t0 = (col - 1) * tw
            t1 = col * tw
            if t0 < b and a < t1:
                cols.add(col)

    rows = [
        row for row in range(1, cfg.u_v + 1)
        if (row - 1) * th < p_hi and p_lo < row * th
    ]

    return {TileId(col, row) for col in cols for row in rows}
