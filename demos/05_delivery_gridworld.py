"""The 9x9 delivery workspace, both tasks, both degree-selection methods.

Task 1 (deliver forever, avoid obstacles) is compatible with pure efficiency:
the optimal loop circulates the bottom row and needs no blending.  Task 2
additionally demands recurring charging visits, which the efficient loop
skips, so the policy is blended; the table shows how the blending degree and
the charging-cell limit probability scale with the efficiency budget.
"""

from effsynth import analyze, build_product, lift_utilities, \
    limit_distribution, synth_general
from effsynth.casestudies import gen_case1

m, task_deliver, task_deliver_charge, reward, cost = gen_case1()
print(f"workspace model: {m.n_states} states "
      f"(free cells x carrying flag), 4 move actions")

pm1 = build_product(m, task_deliver)
r1, c1 = lift_utilities(pm1, reward, cost)
rep = synth_general(pm1, r1, c1, epsilon=0.01)
ca = analyze(pm1, rep.policy)
cells = sorted({pm1.state_names[s].split("&")[0].split("_")[0]
                for s in ca.recurrent_classes[0]})
print(f"\ntask 1: optimal efficiency {rep.value:.4f}, "
      f"blending needed: {not rep.no_perturbation}")
print(f"  long-run loop cells: {cells}")

pm2 = build_product(m, task_deliver_charge)
r2, c2 = lift_utilities(pm2, reward, cost)
charge_states = [i for i in range(pm2.n_states) if "c" in pm2.labels[i]]
print(f"\ntask 2 (also charge forever): product has {pm2.n_states} states")
print("budget   method   degree      charge-cell limit prob")
for eps in (0.005, 0.01, 0.05, 0.1):
    for method in ("es", "ex"):
        rep2 = synth_general(pm2, r2, c2, eps, method)
        ca2 = analyze(pm2, rep2.policy)
        limit = limit_distribution(ca2)
        charge = float(limit[charge_states].sum())
        delta = rep2.plan.delta if rep2.plan else 0.0
        print(f"{eps:<8} {method:<8} {delta:<11.5g} {charge:.5g}")
print("\nthe one-shot degree ('es') is conservative; the exact search ('ex')"
      "\nblends harder and visits the charger far more often at the same"
      " budget.")
