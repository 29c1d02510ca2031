"""Closed forms of the catalog states' amplitudes, in q and in x.

    psi(x) = (2 pi)^(-1/2) integral over (-q0, q0) of phi(q) e^{iqx} dq,

with q0 = pi / (2 sqrt(beta)) and phi normalized on (-q0, q0):
- uniform_q, phi = 1/sqrt(2 q0): psi(x) = sqrt(q0/pi) sinc(q0 x / pi), the
  normalized sinc, whose removable point is x = 0;
- raised_cosine_q, phi = cos(pi q / (2 q0)) / sqrt(q0):
  psi(x) = cos(q0 x) 2a / ((a^2 - x^2) sqrt(2 pi q0)), a = pi / (2 q0),
  whose removable points are x = +-a;
- random_fourier_q, phi ~ sum_n c_n sin(k_n (q + q0)), k_n = n pi / (2 q0),
  with the c_n drawn as the catalog draws them: with
  S(y) = 2 sin(q0 y) / y, mode n contributes
  c_n (e^{in pi/2} S(x + k_n) - e^{-in pi/2} S(x - k_n)) / (2i), and the
  modes are orthogonal, so the norm q0 sum |c_n|^2 is exact;
- truncated_gaussian_q, phi ~ exp(-q^2 / (4 s^2)):
  integral over (-q0, q0) of e^{-q^2/(4s^2) + iqx} dq
  = 2 s sqrt(pi) Re[e^{-s^2 x^2} - e^{-a^2 - 2iasx} w(i(a + isx))], with
  a = q0 / (2s) and w the Faddeeva function, in which no term overflows.

R_2 of the position density, smeared by a Gaussian acceptance of width
sigma or not (sigma = 0), follows by Parseval from the autocorrelation
A(t) = integral of phi(q) conj(phi(q - t)) dq:

    integral of w_sigma^2 dx = (1/pi) integral over (0, 2 q0) of
                               |A(t)|^2 e^{-sigma^2 t^2} dt,

both integrals taken by composite Gauss-Legendre rules on the closed-form
phi.  Only math, NumPy and `scipy.special.wofz` are used, none of the
library's numerics, so tests can hold the library's values against an
independent reference.
"""

import math

import numpy as np
from scipy.special import wofz

# pi/2 less its double: with it, pi/2 - u is exact to far below an ulp of u
_HALF_PI_LOW = 6.123233995736766e-17
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])  # e^{in pi/2} by n mod 4


def q0_of(beta: float) -> float:
    """The half-width of the auxiliary interval at a deformation beta > 0."""
    return math.pi / (2.0 * math.sqrt(beta))


def _modes(shape_args, seed):
    """The random_fourier_q mode numbers and coefficients, drawn as the
    catalog draws them (8 modes by default)."""
    m = int(shape_args[0]) if shape_args else 8
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.arange(1, m + 1), coeff


def _gaussian_norm(q0: float, s: float) -> float:
    """integral over (-q0, q0) of exp(-q^2 / (2 s^2)) dq."""
    return s * math.sqrt(2.0 * math.pi) * math.erf(q0 / (s * math.sqrt(2.0)))


def phi(name: str, q, beta: float, shape_args=(), seed=None) -> np.ndarray:
    """The normalized amplitude of catalog state `name` at the points q of
    (-q0, q0), for beta > 0."""
    q0 = q0_of(beta)
    q = np.asarray(q, dtype=float)
    if name == "uniform_q":
        return np.full(q.shape, 1.0 / math.sqrt(2.0 * q0), dtype=complex)
    if name == "raised_cosine_q":
        return np.cos(math.pi * q / (2.0 * q0)) / math.sqrt(q0) + 0j
    if name == "truncated_gaussian_q":
        s = float(shape_args[0])
        return (np.exp(-q * q / (4.0 * s * s))
                / math.sqrt(_gaussian_norm(q0, s)) + 0j)
    if name == "random_fourier_q":
        n, coeff = _modes(shape_args, seed)
        out = np.zeros(q.shape, dtype=complex)
        for n_, c in zip(n, coeff):
            out += c * np.sin(n_ * math.pi * (q + q0) / (2.0 * q0))
        return out / math.sqrt(q0 * float(np.sum(np.abs(coeff) ** 2)))
    raise ValueError(f"no closed form for {name}")


def psi(name: str, x, beta: float, shape_args=(), seed=None) -> np.ndarray:
    """psi of catalog state `name` at the points x, for beta > 0."""
    q0 = q0_of(beta)
    x = np.asarray(x, dtype=float)
    u = np.abs(q0 * x)
    if name == "uniform_q":
        return math.sqrt(q0 / math.pi) * np.sinc(u / math.pi)
    if name == "raised_cosine_q":
        # with u = q0 |x| and a q0 = pi/2, cos(q0 x) / (a^2 - x^2) is
        # q0^2 sin(d) / (d (pi/2 + u)) for d = pi/2 - u; sin(d)/d is a
        # sinc, which takes the limit 1 at the removable points
        d = (0.5 * math.pi - u) + _HALF_PI_LOW
        return (math.pi * math.sqrt(q0 / (2.0 * math.pi))
                * np.sinc(d / math.pi) / (0.5 * math.pi + u))
    if name == "random_fourier_q":
        n, coeff = _modes(shape_args, seed)
        k = n * math.pi / (2.0 * q0)
        up = _I_POWERS[n % 4]

        def wave(y):  # S(y) = 2 sin(q0 y) / y, a sinc
            return 2.0 * q0 * np.sinc(q0 * y / math.pi)

        terms = (up * wave(x[..., None] + k)
                 - np.conj(up) * wave(x[..., None] - k)) / 2j
        norm = 2.0 * math.pi * q0 * float(np.sum(np.abs(coeff) ** 2))
        return terms @ coeff / math.sqrt(norm)
    if name == "truncated_gaussian_q":
        s = float(shape_args[0])
        a = q0 / (2.0 * s)
        inner = np.real(np.exp(-(s * x) ** 2) - np.exp(-a * a - 2j * a * s * x)
                        * wofz(1j * (a + 1j * s * x)))
        return 2.0 * s * math.sqrt(math.pi) * inner / math.sqrt(
            2.0 * math.pi * _gaussian_norm(q0, s))
    raise ValueError(f"no closed form for {name}")


def _unit_rule(panels: int, n: int):
    """Composite Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(n)
    left = np.arange(panels)[:, None] / panels
    return ((left + (x + 1.0) / (2.0 * panels)).ravel(),
            np.tile(w / (2.0 * panels), panels))


def renyi2_x(name: str, beta: float, sigma: float = 0.0, shape_args=(),
             seed=None) -> float:
    """R_2 = -ln integral of w_sigma^2 of the position density smeared by a
    Gaussian acceptance of width sigma (sigma = 0: unsmeared), by Parseval
    from the autocorrelation of phi."""
    q0 = q0_of(beta)
    t_unit, t_weights = _unit_rule(64, 16)
    t, wt = 2.0 * q0 * t_unit, 2.0 * q0 * t_weights
    q_unit, q_weights = _unit_rule(32, 16)
    span = 2.0 * q0 - t  # the overlap (t - q0, q0) of phi and its shift
    q = (t - q0)[:, None] + span[:, None] * q_unit
    a = span * ((phi(name, q, beta, shape_args, seed)
                 * np.conj(phi(name, q - t[:, None], beta, shape_args, seed)))
                @ q_weights)
    power = np.sum(wt * np.abs(a) ** 2 * np.exp(-(sigma * t) ** 2)) / math.pi
    return -math.log(power)
