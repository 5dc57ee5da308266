import numpy as np
import pytest

from catgate import Grid, WaveFunction, default_grid, make_vacuum, matching, numerics

# Shared inputs, built once for the whole suite; no test changes them.
GRID = default_grid()
# the default window with a node exactly at x = 0
ODD_GRID = Grid(-16.0, 16.0, 4097)
VACUUM = make_vacuum(GRID)
# a displaced, squeezed and momentum-kicked input: off-centre, complex, asymmetric
KICKED = WaveFunction(
    GRID, np.exp(-(GRID.points - 0.7) ** 2 / (2 * 0.6 ** 2) + 1.3j * GRID.points)
).normalized()
VACUUM.values.setflags(write=False)
KICKED.values.setflags(write=False)


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


@pytest.fixture
def airy_call_sizes(monkeypatch):
    """The size of every ``_airy_ai`` call: the ladder's node residuals and
    the two sides of the cubic factor's Airy pass."""
    sizes = []
    original = numerics._airy_ai

    def counted(z):
        sizes.append(z.size)
        return original(z)

    for module in (numerics, matching):
        monkeypatch.setattr(module, "_airy_ai", counted)
    return sizes
