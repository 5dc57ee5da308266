import numpy as np
import pytest

from catgate import Grid, WaveFunction, default_grid, make_vacuum


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def odd_grid():
    """Same window as the default grid but with a node exactly at x = 0."""
    return Grid(-16.0, 16.0, 4097)


@pytest.fixture(scope="session")
def vacuum(grid):
    return make_vacuum(grid)


@pytest.fixture(scope="session")
def odd_vacuum(odd_grid):
    return make_vacuum(odd_grid)


def pointwise_max_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def odd_cat_phase_offset(psi: WaveFunction, p_plus: float) -> float:
    """Relative-phase offset of an odd-cat-like state, from the position of
    the interference node nearest the symmetry point: a state
    ~ sin(theta + p_plus x) exp(-x^2/2) has its node at x = -theta/p_plus.

    Insensitive to the global phase; meaningful for |theta| < pi/2.
    """
    grid = psi.grid
    window = 0.5 * np.pi / p_plus
    sel = np.abs(grid.points) <= window
    idx = np.flatnonzero(sel)
    dens = np.abs(psi.values[idx]) ** 2
    j = int(np.argmin(dens))
    if 0 < j < len(idx) - 1:
        num = dens[j - 1] - dens[j + 1]
        den = 2.0 * (dens[j - 1] - 2.0 * dens[j] + dens[j + 1])
        shift = num / den if den != 0 else 0.0
    else:
        shift = 0.0
    x_node = grid.points[idx[j]] + shift * grid.spacing
    return -p_plus * float(x_node)
