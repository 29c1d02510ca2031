#!/usr/bin/env python3
"""The exact link between auxiliary and physical wavenumber entropies.

H(K) = H(Q) + <ln(1 + beta k^2)>, with a nonnegative state-dependent
correction.  For the flat state the correction is 2 ln 2 at every beta and
H(K) = ln(4 pi) at beta = 1, both closed forms.  The correction also obeys
the concavity bound <ln(1 + beta k^2)> <= ln(1 + beta <k^2>) whenever the
wavenumber variance exists, and its small-beta expansion is
beta <k^2> - (beta^2/2) <k^4>.
"""

import math

import gupcert as g


def main():
    print("flat state: correction term is 2 ln 2 at every deformation")
    for beta in (0.25, 1.0, 4.0):
        p = g.make_params(beta)
        state = g.catalog_state("uniform_q", p)
        corr = g.correction_term(g.bundle(state))
        print(f"  beta = {beta:4}: correction = {corr:.10f}"
              f"   (2 ln 2 = {2*math.log(2):.10f})")
    print()

    print("identity H(K) - H(Q) - correction across the catalog:")
    for name, shape, seed in (("uniform_q", (), None),
                              ("raised_cosine_q", (), None),
                              ("truncated_gaussian_q", (0.25,), None),
                              ("random_fourier_q", (6,), 11)):
        for beta in (1e-3, 1.0):
            p = g.make_params(beta)
            state = g.catalog_state(name, p, shape_args=shape, seed=seed)
            v = g.q_density(state)
            u = g.density_q_to_k(v, p)
            resid = g.diff_shannon(u).value - g.diff_shannon(v).value \
                - g.correction_term(g.bundle(state))
            print(f"  {name:22s} beta={beta:5}: residual = {resid:+.2e}")
    print()

    print("flat state at beta = 1: H(K) against the Cauchy closed form")
    p = g.make_params(1.0)
    state = g.catalog_state("uniform_q", p)
    u = g.density_q_to_k(g.q_density(state), p)
    hk = g.diff_shannon(u)
    print(f"  H(K) = {hk.value:.10f}   ln(4 pi) = {math.log(4*math.pi):.10f}")
    print()

    print("small-beta behavior for a truncated Gaussian (s = 1):")
    state = g.catalog_state("truncated_gaussian_q", p, shape_args=[1.0])
    report = g.correction_linearization_check(state, [1e-2, 1e-3])
    for pt in report.points:
        print(f"  beta = {pt.beta:6}: residual/beta^2 = {pt.ratio:+.4f}"
              f"   -<k^4>/2 = {pt.expected:+.4f}")
    print()

    print("concavity bound where the variance exists:")
    state = g.catalog_state("raised_cosine_q", p)
    rpt = g.check_jensen(g.bundle(state))
    print(f"  ln(1 + beta <k^2>) - correction = {rpt.margin:+.6f}  "
          f"({rpt.verdict})")


if __name__ == "__main__":
    main()
