"""The token-grid adjacency the tests hold ``hgtnet.model.build_graph`` and
graph attention to, built token by token from grid coordinates, for any
grid shape (the package builds square grids only).

Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import itertools

import numpy as np


def grid_adjacency(rows: int, cols: int) -> np.ndarray:
    """The 8-neighborhood plus self-loops of a ``rows`` x ``cols`` grid whose
    tokens are numbered row-major: each token (r, c) is joined to every
    (r + dr, c + dc) with dr, dc in {-1, 0, 1} that lies on the grid."""
    adj = np.zeros((rows * cols, rows * cols), dtype=bool)
    for r, c, dr, dc in itertools.product(range(rows), range(cols), (-1, 0, 1), (-1, 0, 1)):
        if 0 <= r + dr < rows and 0 <= c + dc < cols:
            adj[r * cols + c, (r + dr) * cols + c + dc] = True
    return adj
