#!/usr/bin/env python3
"""Certify every uncertainty relation for one state and print the margins.

Margins are lhs - rhs with the sides arranged so that nonnegative margins
certify the inequality.  Moment-based checks downgrade to not-applicable on
heavy-tailed states (the flat state's wavenumber density is Cauchy, so its
variance genuinely does not exist); the entropic relations are exactly the
statements that survive that.
"""

import numpy as np

import gupcert as g


def show(reports):
    for r in reports if isinstance(reports, list) else [reports]:
        if r.verdict == "not_applicable":
            print(f"  {r.relation_id:32s} not applicable")
        else:
            print(f"  {r.relation_id:32s} lhs={r.lhs:+10.5f}  rhs={r.rhs:+10.5f}"
                  f"  margin={r.margin:+.6f}  [{r.verdict}]")


def main():
    params = g.make_params(1.0)
    for name, shape, seed in (("uniform_q", (), None),
                              ("raised_cosine_q", (), None)):
        state = g.catalog_state(name, params, shape_args=shape, seed=seed)
        rep = g.bundle(state)
        print(f"=== {name}, beta = 1 ===")
        show(g.robertson_margin(rep))
        show(g.check_jensen(rep))
        show(g.check_bbm_corrected(rep))

        f = g.gaussian_acceptance(1.0)
        smeared = (g.smear(rep.u_k, f), g.smear(rep.w_x, f))
        sf = g.s_f(f, params)
        show(g.check_smeared_shannon(rep, smeared, sf))

        pair = g.conjugate_order(2.0)
        show(g.check_beckner(pair, rep))
        show(g.check_renyi_smeared(pair, rep, smeared, sf))

        # bin each smeared density once and keep its power sums at the
        # pair's orders; the binned checks share them
        p_m, p_n = g.bin_pair(np.random.default_rng(3), *smeared, 0.05, 2.0,
                              (pair.alpha, pair.gamma))
        show(g.check_renyi_binned(pair, p_m, p_n, sf))
        show(g.check_tsallis_binned(pair, p_m, p_n, sf))
        print()

    print("Beckner constant across conjugate orders:")
    for alpha in (1.25, 1.5, 2.0, 4.0, np.inf):
        pair = g.conjugate_order(alpha)
        print(f"  alpha = {pair.alpha:6}  gamma = {pair.gamma:.4f}"
              f"  kappa = {g.kappa(pair):.8f}")
    print("  (runs from 2 at gamma = 1/2 up to e at the degenerate pair)")


if __name__ == "__main__":
    main()
