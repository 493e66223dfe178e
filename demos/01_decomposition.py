"""End-component anatomy of a small labeled MDP.

A four-state model with two actions: one state loops on itself forever, two
states form a closed loop that can also idle, and the initial state must pick
a side.  With the Rabin pair (avoid {3}, visit {4}) only the right loop can
win, and only by idling at state 4.  Each component is printed as its
boolean mask over the six state-action pairs, then read back as states and
actions; the almost-sure region is a boolean mask over the states.
"""

import numpy as np

from effsynth import (Mdp, almost_sure_region, amec_filter, maec_decompose,
                      mec_decompose)

trans = {
    (0, 0): {1: 1.0},   # 1 -a1-> 2
    (0, 1): {2: 1.0},   # 1 -a2-> 3
    (1, 0): {1: 1.0},   # 2 -a1-> 2 (a dead end loop)
    (2, 0): {3: 1.0},   # 3 -a1-> 4
    (3, 0): {2: 1.0},   # 4 -a1-> 3
    (3, 1): {3: 1.0},   # 4 -a2-> 4
}
pm = Mdp(["1", "2", "3", "4"], ["a1", "a2"], 0, trans,
         acc_pairs=[({2}, {3})])


def show(tag, components):
    for ec in components:
        acts = {}
        for s, a in zip(pm.pair_state[ec], pm.pair_action[ec]):
            acts.setdefault(pm.state_names[s], []).append(pm.action_names[a])
        print(f"  {tag}: mask {ec.astype(int).tolist()} "
              f"states {list(acts)} actions {acts}")


print("state-action pairs:",
      [(pm.state_names[s], pm.action_names[a])
       for s, a in zip(pm.pair_state, pm.pair_action)])

print("maximal end components (closed + strongly connected):")
mecs = mec_decompose(pm)
show("MEC", mecs)

print("\nmaximal accepting end components (avoid B, touch G):")
maecs = maec_decompose(pm)
show("MAEC", maecs)

print("\naccepting MECs (contain at least one MAEC):")
amecs = amec_filter(mecs, maecs)
show("AMEC", amecs)

region = almost_sure_region(pm, amecs)
print(f"\nstates that can satisfy the task with probability one "
      f"(a state mask {region.astype(int).tolist()}): "
      f"{[pm.state_names[s] for s in np.flatnonzero(region)]}")
print("state 2 is missing: once there, the dead-end loop never reaches G.")
