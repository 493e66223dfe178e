"""Synthesis on a non-communicating model with two accepting components.

The start state can only reach the low-value loop; a better loop floats
disconnected.  The surrogate-reward stage prices each component at its own
optimal efficiency and the average-reward program decides where trajectories
settle, so the reported value honestly reflects what the initial state can
reach.
"""

import numpy as np

from effsynth import Mdp, UtilityFn, analyze, efficiency, synth_general

trans = {
    (0, 0): {1: 1.0},               # start feeds the left loop only
    (1, 0): {2: 1.0}, (2, 0): {1: 1.0},
    (3, 0): {4: 1.0}, (4, 0): {3: 1.0},
}
pm = Mdp(["start", "a1", "a2", "b1", "b2"], ["a"], 0, trans,
         acc_pairs=[(set(), {1, 3})])
r = UtilityFn({(0, 0): 0.0, (1, 0): 1.0, (2, 0): 1.0,
               (3, 0): 3.0, (4, 0): 3.0}, "reward").pair_values(pm)
c = np.full(pm.n_pairs, 1.0)

rep = synth_general(pm, r, c, epsilon=0.01)
print(f"per-component optimal efficiencies: {list(rep.amec_values)}")
print(f"value achievable from the start state: {rep.value:.4f}")
print(f"surrogate-reward program gain (uniform initial weights): "
      f"{rep.avg_gain:.4f}")

ca = analyze(pm, rep.policy)
print(f"achieved efficiency from start: "
      f"{efficiency(ca, pm, r, c, rep.policy, 0):.4f}")
cert = rep.certificate
print(f"recurrent classes: "
      f"{[[pm.state_names[s] for s in comp] for comp in cert.recurrent_classes]}")
print(f"acceptance witnessed: {cert.accepted} "
      f"(absorption defect {cert.absorption_defect:.1e})")
