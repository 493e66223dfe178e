"""Reward-per-cost optimization on a communicating MDP.

The occupation-measure program picks where the chain should spend its time;
decoding the weights gives a stationary policy whose analytic efficiency
matches the program value, and brute force over all deterministic policies
confirms optimality.
"""

import itertools

import numpy as np

from effsynth import (Mdp, UtilityFn, analyze, decode_ratio_policy,
                      efficiency, policy_from_entries, solve_ratio_lfp)

rng = np.random.default_rng(7)
n = 5
# action "ring" walks a deterministic cycle (keeps the model communicating);
# action "drift" jumps to two random cells
trans = {}
for s in range(n):
    trans[(s, 0)] = {(s + 1) % n: 1.0}
    succs = rng.choice(n, size=2, replace=False)
    probs = rng.dirichlet(np.ones(2))
    trans[(s, 1)] = {int(t): float(p) for t, p in zip(succs, probs)}
m = Mdp([f"s{i}" for i in range(n)], ["ring", "drift"], 0, trans)
# utility tables, read as value vectors over m's pairs
r = UtilityFn({k: float(rng.uniform(-1, 2)) for k in trans},
              "reward").pair_values(m)
c = UtilityFn({k: float(rng.uniform(0.3, 1.5)) for k in trans},
              "cost").pair_values(m)

sol = solve_ratio_lfp(m, r, c)
print(f"program value (optimal long-run reward/cost): {sol.value:.6f}")
support = {k: v for k, v in zip(m.state_action_pairs(), sol.gamma.tolist())
           if v > 1e-9}
print(f"occupation support: { {(m.state_names[s], m.action_names[a]): round(v, 4) for (s, a), v in support.items()} }")

policy, ca = decode_ratio_policy(m, sol)
print(f"decoded policy efficiency: "
      f"{efficiency(ca, m, r, c, policy, m.initial):.6f}")

best = -np.inf
for combo in itertools.product(*[m.available[s] for s in range(n)]):
    p = policy_from_entries(m, np.arange(n), np.array(combo), np.ones(n))
    cb = analyze(m, p)
    best = max(best, efficiency(cb, m, r, c, p, m.initial))
print(f"brute force over {2 ** n} deterministic policies: {best:.6f}")
