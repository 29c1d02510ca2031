#!/usr/bin/env python3
"""From densities to discrete distributions: binning and its entropy bounds.

Binning converts differential entropies into nonnegative discrete ones at
the cost of a -ln(max bin width) term.  The discretization lemma
H(p) >= H(density) - ln(delta_max) holds for any layout, and the discrete
norms obey ||p||_alpha <= 1 <= ||p||_gamma for conjugate orders, which is
what powers the Tsallis bounds.
"""

import math

import numpy as np

import gupcert as g


def main():
    params = g.make_params(1.0)
    state = g.catalog_state("raised_cosine_q", params)
    rep = g.bundle(state)

    print("discretizing the wavenumber density with random bin widths:")
    rng = np.random.default_rng(12)
    lo, hi = g.DensityCdf(rep.u_k).coverage_window()
    for dmax in (2.0, 0.5, 0.1):
        edges = g.random_edges(rng, lo, hi, 0.05, dmax)
        dist = g.bin_density(rep.u_k, edges)
        h_disc = g.discrete_renyi(dist, 1.0).value
        h_cont = g.diff_shannon(rep.u_k).value
        slack = h_disc - (h_cont - math.log(dist.delta_max))
        print(f"  {len(dist.probs):6d} bins, delta_max = {dist.delta_max:.3f}: "
              f"H(p) = {h_disc:8.4f}, lemma slack = {slack:+.4f}")
    print()

    print("discrete Renyi entropy is nonincreasing in the order:")
    edges = g.random_edges(rng, lo, hi, 0.05, 2.0)
    dist = g.bin_density(rep.u_k, edges)
    for alpha in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        print(f"  R_{alpha:<4} = {g.discrete_renyi(dist, alpha).value:.6f}")
    print()

    print("norm ordering for conjugate pairs:")
    for alpha in (1.5, 2.0, 3.0):
        pair = g.conjugate_order(alpha)
        na = g.discrete_norm(dist, pair.alpha)
        ng = g.discrete_norm(dist, pair.gamma)
        print(f"  ||p||_{pair.alpha:<4} = {na:.6f} <= 1 <= "
              f"||p||_{pair.gamma:.3f} = {ng:.6f}")
    print()

    print("binned sum bound (coarse bins make it vacuous):")
    f = g.gaussian_acceptance(1.0)
    smeared = (g.smear(rep.u_k, f), g.smear(rep.w_x, f))
    sf = g.s_f(f, params)
    pair = g.conjugate_order(2.0)
    for dmin, dmax in ((0.05, 0.2), (1.0, 2.0)):
        p_m, p_n = g.bin_pair(rng, *smeared, dmin, dmax,
                              (pair.alpha, pair.gamma))
        rpt = g.check_tsallis_binned(pair, p_m, p_n, sf)[0]
        print(f"  widths in [{dmin}, {dmax}]: lhs = {rpt.lhs:8.5f}, "
              f"rhs = {rpt.rhs:8.5f}, margin = {rpt.margin:+.5f}")


if __name__ == "__main__":
    main()
