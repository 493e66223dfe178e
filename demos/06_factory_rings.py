"""The 7x7 factory of nested rings: when does the task loop become optimal?

Without a pickup bonus the quiet middle ring is the most efficient place to
live, but it never visits the command or material cells.  Adding a bonus for
permission-holding pickups raises the command-then-material cycle's ratio
until it overtakes; the flip happens at a single threshold.
"""

from effsynth import decode_ratio_policy, solve_ratio_lfp
from effsynth.casestudies import gen_case2

m, task, reward_family, cost = gen_case2()
print(f"factory model: {m.n_states} states (ring cells x permission bit)")
print("\nbonus   optimal ratio   loop")
c = cost.pair_values(m)
for bonus in (0, 10, 20, 25, 30, 40, 60, 80):
    sol = solve_ratio_lfp(m, reward_family(float(bonus)).pair_values(m), c)
    policy, ca = decode_ratio_policy(m, sol)
    labs = set()
    for s in ca.recurrent_classes[0]:
        labs |= m.labels[s]
    loop = ("command-then-material cycle" if {"g", "r"} <= labs
            else "quiet middle ring")
    print(f"{bonus:<7} {sol.value:<15.4f} {loop}")

print("\nbelow the threshold the efficient robot ignores the task; above it,"
      "\nchasing the bonus happens to satisfy the task as a side effect.")
