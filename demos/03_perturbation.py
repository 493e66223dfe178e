"""Blending an optimal policy with an exploring one, and what it costs.

The efficiency loss of the blend (1-delta)*optimal + delta*exploring obeys a
closed-form identity built from deviation vectors.  Inverting its worst-case
bound gives a safe blending degree in one shot ('es'); a Newton search on
the exact evaluator gives the largest safe degree ('ex').  On a lopsided
instance the one-shot bound is wildly conservative.
"""

import numpy as np

from effsynth import (Mdp, UtilityFn, analyze, blend, efficiency,
                      limit_distribution, perturbation_degree_estimated,
                      perturbation_degree_exact, policy_from_entries,
                      uniform_policy)
from effsynth.chain import ratio_deviation, utility_vector

m = Mdp(["hub", "way", "far"], ["a", "b"], 0,
        {(0, 0): {0: 1.0}, (0, 1): {1: 1.0},
         (1, 0): {0: 0.9, 2: 0.1},
         (2, 0): {0: 1.0}, (2, 1): {2: 1.0}})
r = UtilityFn({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0,
               (2, 0): 0.0, (2, 1): -50.0}, "reward").pair_values(m)
c = np.full(m.n_pairs, 1.0)
mu_opt = policy_from_entries(m, np.arange(3), np.zeros(3, dtype=np.int64),
                             np.ones(3))
mu_irr = uniform_policy(m)
ca_opt = analyze(m, mu_opt)

print("identity check (difference of efficiencies vs deviation formula):")
# J(delta) - J(0) = delta * pi_delta d / (pi_delta v_c,delta), where d is the
# ratio deviation of mu_opt towards mu_irr
j_opt, d = ratio_deviation(ca_opt, m, mu_opt, mu_irr, r, c)
for delta in (0.1, 0.4, 0.8):
    mu_d = blend(mu_opt, mu_irr, delta)
    ca_d = analyze(m, mu_d)
    lhs = efficiency(ca_d, m, r, c, mu_d, m.initial) - j_opt
    pi_d = limit_distribution(ca_d)
    rhs = delta / float(pi_d @ utility_vector(m, c, mu_d)) * float(pi_d @ d)
    print(f"  delta={delta}: lhs={lhs:+.9f} rhs={rhs:+.9f} "
          f"gap={abs(lhs - rhs):.2e}")

print("\nblending degree for a 0.01 efficiency budget:")
es = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c, 0.01)
ex = perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, 0.01)
print(f"  one-shot bound: delta={es.delta:.6f} "
      f"(worst-state gap {es.d_inf:.2f}, min cost {es.c_min})")
print(f"  Newton search:  delta={ex.delta:.6f}")
print(f"  conservatism: {ex.delta / es.delta:.0f}x")

print("\nactual efficiency along the blend:")
base = efficiency(ca_opt, m, r, c, mu_opt, 0)
for delta in (es.delta, ex.delta, 2 * ex.delta):
    mu_d = blend(mu_opt, mu_irr, delta)
    cad = analyze(m, mu_d)
    val = efficiency(cad, m, r, c, mu_d, 0)
    print(f"  delta={delta:.5f}: efficiency {val:.6f} (loss {base - val:.6f})")
