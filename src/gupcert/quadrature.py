"""Gauss-Legendre panel rules and small integration helpers.

All densities in this library live on composite panel rules.  Panels are
geometrically refined toward interval endpoints whenever an integrand can be
endpoint-singular (the deformed-wavenumber Jacobian blows up at the edge of
the auxiliary interval); a fixed number of Gauss nodes per panel then resolves
logarithmic or weak algebraic singularities to near machine precision, while
nodes never touch the endpoints themselves.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_legendre

ENTROPY_FLOOR = 1e-300  # below this a density value is treated as exact zero
_GRADED_LEVELS = 40  # halvings of the outer gap toward a graded endpoint
_MAX_BULK_PANELS = 48  # cap on the bulk panels of one half interval
_BLOCK_ENTRIES = 4_000_000  # kernel matrix entries formed at once by dense_sum


@lru_cache(maxsize=128)
def _gl_rule(n: int):
    x, w = roots_legendre(n)
    return x, w


def composite_rule(breakpoints, n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule, n_per_panel nodes on each panel of breakpoints."""
    edges = np.asarray(breakpoints, dtype=float)
    x, w = _gl_rule(n_per_panel)
    a, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return (a + half * (x + 1.0)).ravel(), (half * w).ravel()


def interval_breakpoints(half_width: float, scale: float,
                         graded: bool) -> list[float]:
    """Panel edges on (0, half_width) for a symmetric interval.

    The bulk `[0, half_width/2]` is split into panels of width comparable to
    `scale` (the finest feature size of the states that will live on the
    grid), at most _MAX_BULK_PANELS of them.  When `graded`, the outer half is
    refined geometrically toward the endpoint, halving the remaining gap
    _GRADED_LEVELS times; otherwise it is split like the bulk.
    """
    mid = 0.5 * half_width
    width = min(1.5 * scale, mid)
    n_bulk = int(min(_MAX_BULK_PANELS, max(2, np.ceil(mid / width))))
    edges = list(np.linspace(0.0, mid, n_bulk + 1))
    if graded:
        edges.extend(half_width * (1.0 - 2.0 ** (-j))
                     for j in range(2, _GRADED_LEVELS + 1))
        edges.append(half_width)
    else:
        edges.extend(np.linspace(mid, half_width, n_bulk + 1)[1:])
    return edges


def symmetric_rule(half_width: float, scale: float, n_per_panel: int,
                   graded: bool):
    """Composite rule on (-half_width, +half_width), mirrored from the right half."""
    right = interval_breakpoints(half_width, scale, graded=graded)
    x, w = composite_rule(right, n_per_panel)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def dense_sum(kernel, targets: np.ndarray, nodes: np.ndarray,
              *coeffs: np.ndarray):
    """sum_j kernel(targets[i], nodes[j]) * c[j] for every target i and c.

    `kernel` is called on broadcast (block, 1) and (1, nodes) arrays; rows are
    formed in blocks of about _BLOCK_ENTRIES entries, which bounds memory
    whatever the number of targets.  Each block serves every c; one gives an
    array, several a tuple.  A last single row joins the block before it: a
    one-row product takes a dot kernel that rounds differently.
    """
    def products(block):  # the block is freed before the next is formed
        return [block @ c for c in coeffs]

    chunk = max(2, _BLOCK_ENTRIES // max(nodes.size, 1))
    cuts = [*range(0, max(targets.size - 1, 1), chunk), targets.size]
    rows = [products(kernel(targets[a:b, None], nodes[None, :]))
            for a, b in zip(cuts, cuts[1:])]
    sums = tuple(np.concatenate(col) for col in zip(*rows))
    return sums[0] if len(sums) == 1 else sums


def entropy_sum(weights: np.ndarray, values: np.ndarray) -> float:
    """-sum(w * p * ln p) with the 0 ln 0 := 0 convention."""
    p = np.asarray(values, dtype=float)
    mask = p > ENTROPY_FLOOR
    if not np.any(mask):
        return 0.0
    return float(-np.sum(weights[mask] * p[mask] * np.log(p[mask])))


def power_sum(weights: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """sum(w * p**alpha) over strictly positive density values."""
    p = np.asarray(values, dtype=float)
    mask = p > ENTROPY_FLOOR
    return float(np.sum(weights[mask] * p[mask] ** alpha))


def pchip(x: np.ndarray, y: np.ndarray, **kw) -> PchipInterpolator:
    # image grids span many decades; silence spurious overflow in the
    # monotone slope blend, the interpolant itself stays finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return PchipInterpolator(x, y, **kw)


def interp_delta(x: np.ndarray, f: np.ndarray, grid_value: float) -> float:
    """Gap between a monotone-interpolant integral of f and the grid rule.

    Serves as an honest resolution-error proxy for integrals of tabulated
    densities: both estimates converge to the same limit, so their gap bounds
    the grid contribution at the achieved resolution.
    """
    try:
        anti = pchip(x, f, extrapolate=False).antiderivative()
        return abs(float(anti(x[-1]) - anti(x[0])) - grid_value)
    except ValueError:
        return 0.0
