"""Shared numerical helpers: Fourier conventions, quadrature, small stencils.

Loop-valued objects are sampled at the M-th roots of unity
``lam_m = exp(2*pi*i*m/M)``; Fourier coefficients follow the convention
``f(lam) = sum_k fhat_k lam**k`` so that ``fhat = fft(samples)/M`` with
indices read modulo M (index j >= M/2 means exponent j - M).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def dot_r2(w, z):
    """Real dot product of complex numbers viewed as R^2 vectors."""
    return np.real(np.conj(w) * z)


def unit_lambdas(m: int) -> np.ndarray:
    """The m-th roots of unity, ordered with lambda_0 = 1."""
    return np.exp(2j * np.pi * np.arange(m) / m)


def loop_coeffs(samples: np.ndarray, axis: int = 0) -> np.ndarray:
    """Fourier coefficients of circle samples, index j <-> exponent j mod M."""
    m = samples.shape[axis]
    return np.fft.fft(samples, axis=axis) / m


def coeff_exponents(m: int) -> np.ndarray:
    """Exponent carried by each coefficient slot: 0..M/2-1, then -M/2..-1."""
    k = np.arange(m)
    return np.where(k < m // 2 + m % 2, k, k - m)


def samples_from_coeffs(coeffs: np.ndarray, axis: int = 0) -> np.ndarray:
    m = coeffs.shape[axis]
    return np.fft.ifft(coeffs, axis=axis) * m


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached."""
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GL_CACHE[n]


# Finite-difference stencils.  `f` maps a complex array to an array whose
# leading axes match the input; steps are taken in the ambient x/y directions.

def fd_x(f, z, h):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def fd_y(f, z, h):
    return (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)


def fd_x4(f, z, h):
    """Fourth-order central d/dx."""
    return (8.0 * (f(z + h) - f(z - h)) - (f(z + 2 * h) - f(z - 2 * h))) / (12.0 * h)


def fd_y4(f, z, h):
    return (8.0 * (f(z + 1j * h) - f(z - 1j * h))
            - (f(z + 2j * h) - f(z - 2j * h))) / (12.0 * h)


def fd_z(f, z, h):
    return 0.5 * (fd_x(f, z, h) - 1j * fd_y(f, z, h))


def fd_zbar(f, z, h):
    return 0.5 * (fd_x(f, z, h) + 1j * fd_y(f, z, h))


def fd_laplacian4(f, z, h):
    """Fourth-order 9-point Laplacian."""
    def second(step):
        return (-(f(z + 2 * step) + f(z - 2 * step))
                + 16.0 * (f(z + step) + f(z - step)) - 30.0 * f(z)) / (12.0 * h * h)

    return second(h) + second(1j * h)
