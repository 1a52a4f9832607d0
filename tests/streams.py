"""Paths of a key prefix rebuilt from the block streams, kept as a test
oracle for the studies and the batch: path i of a prefix is row i % G of
the noise block trajectory_rng(seed, prefix + (i // G,)), G = _BLOCK_PATHS,
stepped by the one kernel."""

import numpy as np

from reflectal.forward import _block_noise, _blocks, _reflected_core


def prefix_paths(coeffs, domain, x, epsilon, grid, seed, n_paths, prefix=(),
                 first=0):
    """(x_paths, k_paths), (n_paths, n+1, d) and (n_paths, n+1), of the
    paths first .. first + n_paths - 1 of the key prefix from the start x;
    first is a whole number of blocks."""
    d, m, _ = coeffs.dims
    x0 = np.broadcast_to(np.asarray(x, float), (n_paths, d)).copy()
    noise = _block_noise(seed, _blocks(prefix, n_paths, first), grid.n_steps,
                         m, grid.dt)
    xp, kp, _ = _reflected_core(coeffs, domain, x0, epsilon, grid, noise)
    return xp, kp
