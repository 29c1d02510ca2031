"""Closed forms of the position amplitude psi of two catalog states.

    psi(x) = (2 pi)^(-1/2) integral over (-q0, q0) of phi(q) e^{iqx} dq,

with q0 = pi / (2 sqrt(beta)):
- uniform_q, phi = 1/sqrt(2 q0): psi(x) = sqrt(q0/pi) sinc(q0 x / pi), the
  normalized sinc, whose removable point is x = 0;
- raised_cosine_q, phi = cos(pi q / (2 q0)) / sqrt(q0):
  psi(x) = cos(q0 x) 2a / ((a^2 - x^2) sqrt(2 pi q0)), a = pi / (2 q0),
  whose removable points are x = +-a.

Only math and NumPy are used, none of the library's numerics, so tests can
hold the library's values against an independent reference.
"""

import math

import numpy as np

# pi/2 less its double: with it, pi/2 - u is exact to far below an ulp of u
_HALF_PI_LOW = 6.123233995736766e-17


def q0_of(beta: float) -> float:
    """The half-width of the auxiliary interval at a deformation beta > 0."""
    return math.pi / (2.0 * math.sqrt(beta))


def psi(name: str, x, beta: float) -> np.ndarray:
    """psi of catalog state `name` at the points x, for beta > 0."""
    q0 = q0_of(beta)
    u = np.abs(q0 * np.asarray(x, dtype=float))
    if name == "uniform_q":
        return math.sqrt(q0 / math.pi) * np.sinc(u / math.pi)
    if name == "raised_cosine_q":
        # with u = q0 |x| and a q0 = pi/2, cos(q0 x) / (a^2 - x^2) is
        # q0^2 sin(d) / (d (pi/2 + u)) for d = pi/2 - u; sin(d)/d is a
        # sinc, which takes the limit 1 at the removable points
        d = (0.5 * math.pi - u) + _HALF_PI_LOW
        return (math.pi * math.sqrt(q0 / (2.0 * math.pi))
                * np.sinc(d / math.pi) / (0.5 * math.pi + u))
    raise ValueError(f"no closed form for {name}")
