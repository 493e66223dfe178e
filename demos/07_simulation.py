"""Seeded rollouts against the analytic evaluator.

Every rollout draws from a counter-based stream keyed by (seed, rollout), so
the same configuration reproduces bit-identical statistics, and the pathwise
reward/cost ratio converges on the analytic long-run value.
"""

import numpy as np

from effsynth import (Mdp, RolloutConfig, UtilityFn, analyze, efficiency,
                      simulate, synth_general)

trans = {
    (0, 0): {1: 0.6, 0: 0.4}, (0, 1): {2: 1.0},
    (1, 0): {0: 0.5, 2: 0.5},
    (2, 0): {0: 0.3, 2: 0.7}, (2, 1): {1: 1.0},
}
pm = Mdp(["u", "v", "w"], ["a", "b"], 0, trans, acc_pairs=[(set(), {1})])
r = UtilityFn({(0, 0): 1.0, (0, 1): 0.2, (1, 0): 3.0,
               (2, 0): 0.5, (2, 1): 2.0}, "reward").pair_values(pm)
c = np.full(pm.n_pairs, 1.0)

rep = synth_general(pm, r, c, epsilon=0.01)
ca = analyze(pm, rep.policy)
analytic = efficiency(ca, pm, r, c, rep.policy, 0)
print(f"analytic efficiency of the synthesized policy: {analytic:.6f}")

cfg = RolloutConfig(steps=200000, rollouts=6, seed=42)
stats = simulate(pm, rep.policy, r, c, cfg)
print(f"simulated: {stats.mean_ratio:.6f} +- {stats.stderr:.2e} "
      f"(gap {abs(stats.mean_ratio - analytic):.2e})")

again = simulate(pm, rep.policy, r, c, cfg)
print(f"same seed, same bits: {again == stats}")

for k, (b_set, g_set) in enumerate(pm.acc_pairs):
    g = sum(stats.visit_counts[s] for s in g_set)
    b = sum(stats.visit_counts[s] for s in b_set)
    print(f"pair {k}: {g} visits to G, {b} visits to B "
          f"across {cfg.rollouts} rollouts")
