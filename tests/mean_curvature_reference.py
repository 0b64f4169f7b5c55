"""Reference mean-curvature residual field: the 30-evaluation form that
`hamstat.checks.check_mean_curvature` replaced with one 13-point stencil.

Each derivative has its own stencil, and the frame angle at each axis
neighbour zs +- h, zs +- i h is re-derived from a central-difference frame
there, normalized.  Kept only to compare the residual and the memory peak
of the current check against it.
"""

import numpy as np

from hamstat.algebra import L_I, lagrangian_angle_raw
from hamstat.numerics import TWO_PI, fd_x, fd_y


def fd_xx(f, z, h):
    return (f(z + h) - 2.0 * f(z) + f(z - h)) / (h * h)


def fd_yy(f, z, h):
    return (f(z + 1j * h) - 2.0 * f(z) + f(z - 1j * h)) / (h * h)


def fd_xy(f, z, h):
    return (f(z + h + 1j * h) - f(z + h - 1j * h)
            - f(z - h + 1j * h) + f(z - h - 1j * h)) / (4.0 * h * h)


def reference_field(f, zs, h):
    """H - (1/2) J grad(beta) at the points zs, by the 30-evaluation stencils."""
    xx = fd_x(f, zs, h)
    xy = fd_y(f, zs, h)
    sxx = fd_xx(f, zs, h)
    sxy = fd_xy(f, zs, h)
    syy = fd_yy(f, zs, h)

    e = np.sum(xx * xx, axis=-1)
    g = np.sum(xy * xy, axis=-1)
    fg = np.sum(xx * xy, axis=-1)
    det = e * g - fg ** 2

    def normal_part(vec):
        a = np.sum(vec * xx, axis=-1)
        b = np.sum(vec * xy, axis=-1)
        c1 = (g * a - fg * b) / det
        c2 = (e * b - fg * a) / det
        return vec - c1[..., None] * xx - c2[..., None] * xy

    h11 = normal_part(sxx)
    h12 = normal_part(sxy)
    h22 = normal_part(syy)
    mean_curv = 0.5 * ((g[..., None] * h11 - 2 * fg[..., None] * h12
                        + e[..., None] * h22) / det[..., None])

    def angle(z):
        ax = fd_x(f, z, h)
        ay = fd_y(f, z, h)
        ax = ax / np.linalg.norm(ax, axis=-1, keepdims=True)
        ay = ay / np.linalg.norm(ay, axis=-1, keepdims=True)
        return lagrangian_angle_raw(ax, ay)

    def dwrap(a, b):
        d = a - b
        return d - TWO_PI * np.round(d / TWO_PI)

    bx = dwrap(angle(zs + h), angle(zs - h)) / (2 * h)
    by = dwrap(angle(zs + 1j * h), angle(zs - 1j * h)) / (2 * h)
    grad = ((g * bx - fg * by)[..., None] * xx
            + (e * by - fg * bx)[..., None] * xy) / det[..., None]
    target = 0.5 * (grad @ L_I.T)
    return mean_curv - target


def reference_residual(f, lattice, grid_n, h):
    """Max norm of the reference field on the lattice grid, at step h."""
    field = reference_field(f, lattice.grid(grid_n), h)
    return float(np.max(np.linalg.norm(field, axis=-1)))
