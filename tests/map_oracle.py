"""The dense map path that misac.synth replaced, kept as a test oracle:
rasterization into a [res, res, 4] grid (three bev occupancy channels, then
height), and the scan of such a grid for the map file's cell rows."""

import numpy as np

from misac import synth


def rasterize_dense(scene, resolution=256, marker_radius=3.0) -> np.ndarray:
    """The [res, res, 4] grid that rasterize_scene drew before it built rows."""
    F = scene.footprint
    grid = np.zeros((resolution, resolution, 4))
    bev, height = grid[..., :3], grid[..., 3:]

    def cell(x, y):
        col = min(int((x + F) / (2 * F) * resolution), resolution - 1)
        row = min(int((y + F) / (2 * F) * resolution), resolution - 1)
        return row, col

    for s in scene.scatterers:
        row, col = cell(s.position[0], s.position[1])
        bev[row, col, 0] = 1.0
        height[row, col, 0] = max(height[row, col, 0], s.position[2])

    rad = max(int(round(marker_radius / (2 * F) * resolution)), 1)
    for pos, ch in ((scene.tx_position, 1), (scene.rx_position, 2)):
        row, col = cell(pos[0], pos[1])
        lo_r, hi_r = max(row - rad, 0), min(row + rad + 1, resolution)
        lo_c, hi_c = max(col - rad, 0), min(col + rad + 1, resolution)
        rr, cc = np.mgrid[lo_r:hi_r, lo_c:hi_c]
        disc = (rr - row) ** 2 + (cc - col) ** 2 <= rad * rad
        bev[lo_r:hi_r, lo_c:hi_c, ch][disc] = 1.0
    return grid


def map_cells(grid: np.ndarray) -> np.ndarray:
    """The float64 [k, 5] rows of a [res, res, 4] grid: one per cell whose
    four channels are not all +0.0 bit patterns, in increasing row-major
    index; column 0 the index, columns 1-4 the channels."""
    flat = grid.reshape(-1, 4)
    bits = flat.view(np.uint64)
    index = np.flatnonzero(bits[:, 0] | bits[:, 1] | bits[:, 2] | bits[:, 3])
    cells = np.empty((index.size, 5))
    cells[:, 0] = index
    cells[:, 1:] = flat[index]
    return cells


def scene_map(grid: np.ndarray) -> synth.SceneMap:
    """The SceneMap whose dense channels are grid."""
    return synth.SceneMap(map_cells(grid), grid.shape[0])
