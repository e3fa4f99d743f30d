"""Tile geometry checked against a brute-force rectangle-intersection oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecast import TileId, TilingConfig, ViewDirection, compute_tile_set


def oracle_tile_set(direction, cfg):
    """Independent reference: test every tile rectangle against the extended
    viewport, resolving the yaw seam by trying whole-turn shifts instead of
    splitting intervals."""
    ext_w = cfg.fov_h_deg + 2.0 * cfg.margin_deg
    ext_h = cfg.fov_v_deg + 2.0 * cfg.margin_deg
    y0 = direction.yaw_deg - ext_w / 2.0
    y1 = direction.yaw_deg + ext_w / 2.0
    p0 = max(0.0, direction.pitch_deg - ext_h / 2.0)
    p1 = min(180.0, direction.pitch_deg + ext_h / 2.0)
    out = set()
    for col in range(1, cfg.u_h + 1):
        t0 = (col - 1) * cfg.tile_width_deg
        t1 = col * cfg.tile_width_deg
        if ext_w >= 360.0:
            col_hit = True
        else:
            col_hit = any(max(t0, y0 + s) < min(t1, y1 + s)
                          for s in (-720.0, -360.0, 0.0, 360.0, 720.0))
        if not col_hit:
            continue
        for row in range(1, cfg.u_v + 1):
            b0 = (row - 1) * cfg.tile_height_deg
            b1 = row * cfg.tile_height_deg
            if max(b0, p0) < min(b1, p1):
                out.add(TileId(col, row))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        TilingConfig(u_h=0, u_v=4, fov_h_deg=90.0, fov_v_deg=90.0)
    with pytest.raises(ValueError):
        TilingConfig(u_h=8, u_v=4, fov_h_deg=0.0, fov_v_deg=90.0)
    with pytest.raises(ValueError):
        TilingConfig(u_h=8, u_v=4, fov_h_deg=361.0, fov_v_deg=90.0)
    with pytest.raises(ValueError):
        TilingConfig(u_h=8, u_v=4, fov_h_deg=90.0, fov_v_deg=200.0)
    with pytest.raises(ValueError):
        TilingConfig(u_h=8, u_v=4, fov_h_deg=90.0, fov_v_deg=90.0,
                     margin_deg=-1.0)


def test_direction_validation():
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=90.0, fov_v_deg=90.0)
    with pytest.raises(ValueError):
        compute_tile_set(ViewDirection(360.0, 90.0), cfg)
    with pytest.raises(ValueError):
        compute_tile_set(ViewDirection(-0.5, 90.0), cfg)
    with pytest.raises(ValueError):
        compute_tile_set(ViewDirection(10.0, 181.0), cfg)


# ---------------------------------------------------------------------------
# compute_tile_set
# ---------------------------------------------------------------------------

def test_full_sphere_returns_every_tile():
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=340.0, fov_v_deg=170.0,
                       margin_deg=10.0)
    tiles = compute_tile_set(ViewDirection(123.0, 77.0), cfg)
    assert len(tiles) == 32


def test_viewport_inside_one_tile():
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=44.0, fov_v_deg=44.0)
    tiles = compute_tile_set(ViewDirection(22.5, 22.5), cfg)
    assert tiles == {TileId(1, 1)}


def test_touching_grid_line_excludes_neighbor():
    # extended viewport exactly [0,45]x[0,45]: overlap is open, so the
    # neighbors that share only an edge stay out
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=45.0, fov_v_deg=45.0)
    tiles = compute_tile_set(ViewDirection(22.5, 22.5), cfg)
    assert tiles == {TileId(1, 1)}


def test_wraparound_columns():
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                       margin_deg=15.0)
    d = ViewDirection(0.0, 90.0)
    tiles = compute_tile_set(d, cfg)
    cols = {t.col for t in tiles}
    assert {8, 1, 2} <= cols
    assert tiles == oracle_tile_set(d, cfg)


def test_pole_clamp():
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=100.0,
                       margin_deg=15.0)
    tiles = compute_tile_set(ViewDirection(180.0, 0.0), cfg)
    assert tiles
    assert {t.row for t in tiles} <= {1, 2}
    assert tiles == oracle_tile_set(ViewDirection(180.0, 0.0), cfg)


def test_matches_oracle_on_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(300):
        cfg = TilingConfig(
            u_h=int(rng.integers(1, 31)),
            u_v=int(rng.integers(1, 16)),
            fov_h_deg=float(rng.uniform(10.0, 360.0)),
            fov_v_deg=float(rng.uniform(10.0, 180.0)),
            margin_deg=float(rng.uniform(0.0, 40.0)),
        )
        d = ViewDirection(float(rng.uniform(0.0, 360.0)),
                          float(rng.uniform(0.0, 180.0)))
        assert compute_tile_set(d, cfg) == oracle_tile_set(d, cfg), (cfg, d)


def test_result_nonempty_on_random_cases():
    rng = np.random.default_rng(9)
    cfg = TilingConfig(u_h=12, u_v=6, fov_h_deg=20.0, fov_v_deg=20.0)
    for _ in range(100):
        d = ViewDirection(float(rng.uniform(0.0, 360.0)),
                          float(rng.uniform(0.0, 180.0)))
        assert compute_tile_set(d, cfg)


# dyadic yaw values keep the whole-tile shift arithmetic exact
_dyadic_yaw = st.integers(min_value=0, max_value=1439).map(lambda k: k * 0.25)


@given(yaw=_dyadic_yaw,
       pitch=st.floats(min_value=0.0, max_value=180.0, allow_nan=False),
       j=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_rotation_equivariance_by_whole_tiles(yaw, pitch, j):
    cfg = TilingConfig(u_h=8, u_v=4, fov_h_deg=100.0, fov_v_deg=70.0,
                       margin_deg=10.0)
    base = compute_tile_set(ViewDirection(yaw, pitch), cfg)
    shifted = compute_tile_set(
        ViewDirection((yaw + j * cfg.tile_width_deg) % 360.0, pitch), cfg)
    rotated = {TileId((t.col - 1 + j) % cfg.u_h + 1, t.row) for t in base}
    assert shifted == rotated


@given(yaw=st.floats(min_value=0.0, max_value=359.99, allow_nan=False),
       pitch=st.floats(min_value=0.0, max_value=180.0, allow_nan=False),
       margin=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
       extra=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_margin_monotonicity(yaw, pitch, margin, extra):
    mk = lambda mg: TilingConfig(u_h=10, u_v=5, fov_h_deg=80.0,
                                 fov_v_deg=60.0, margin_deg=mg)
    d = ViewDirection(yaw, pitch)
    small = compute_tile_set(d, mk(margin))
    big = compute_tile_set(d, mk(margin + extra))
    assert small <= big


def test_returned_tiles_cover_the_viewport():
    rng = np.random.default_rng(31)
    cfg = TilingConfig(u_h=16, u_v=8, fov_h_deg=90.0, fov_v_deg=70.0,
                       margin_deg=5.0)
    for _ in range(50):
        d = ViewDirection(float(rng.uniform(0.0, 360.0)),
                          float(rng.uniform(0.0, 180.0)))
        tiles = compute_tile_set(d, cfg)
        ext_w = cfg.fov_h_deg + 2 * cfg.margin_deg
        ext_h = cfg.fov_v_deg + 2 * cfg.margin_deg
        # random interior points of the extended viewport must land in a tile
        ys = d.yaw_deg + rng.uniform(-ext_w / 2, ext_w / 2, size=40)
        ps = np.clip(d.pitch_deg + rng.uniform(-ext_h / 2, ext_h / 2, size=40),
                     1e-9, 180.0 - 1e-9)
        for y, p in zip(ys % 360.0, ps):
            col = int(math.floor(y / cfg.tile_width_deg)) % cfg.u_h + 1
            row = min(int(math.floor(p / cfg.tile_height_deg)), cfg.u_v - 1) + 1
            assert TileId(col, row) in tiles, (d, y, p)
