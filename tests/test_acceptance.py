"""Acceptance gate: ten criteria, each printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance below is
fixed here, not tuned at runtime; random sweeps use fixed seeds so reruns are
deterministic.
"""

import math
import time

import numpy as np
import pytest

from effsynth.model import (Mdp, ProductMdp, blend, build_product,
                            lift_utilities, uniform_policy)
from effsynth.graph import maec_decompose, mec_decompose, restrict
from effsynth.chain import (analyze, average_utility, efficiency,
                            limit_distribution, potential_vector,
                            ratio_perturbation_identity_check,
                            utility_vector)
from effsynth.lp import (decode_avg_policy, decode_ratio_policy,
                         solve_avg_reward_lp, solve_ratio_lfp)
from effsynth.synthesis import (build_reward_k, perturbation_degree_estimated,
                                perturbation_degree_exact, synth_general)
from effsynth.sim import RolloutConfig, simulate
from effsynth.casestudies import (COST_BY_DISTANCE, Case1Params, Case2Params,
                                  gen_case1, gen_case2)

from conftest import (amecs_of, brute_force_best_ratio, dense_p,
                      deviation_vector, ec_parts, example1_mdp,
                      example1_product, random_communicating_mdp,
                      random_communicating_product, random_mdp,
                      random_policy, random_unichain_policy,
                      random_utilities)

from test_synthesis import lopsided_instance, random_multichain_product


def report(num, desc, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE] criterion {num}: {status} — {desc} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_example_golden():
    t0 = time.time()
    m = example1_mdp()
    mecs = [ec_parts(m, ec) for ec in mec_decompose(m)]
    ok = mecs == [(frozenset({1}), {1: {0}}),
                  (frozenset({2, 3}), {2: {0}, 3: {0, 1}})]
    pm = example1_product()
    maecs = [ec_parts(pm, ec) for ec in maec_decompose(pm)]
    ok = ok and maecs == [(frozenset({3}), {3: {1}})]
    amecs = [ec_parts(pm, ec) for ec in amecs_of(pm)]
    ok = ok and amecs == [(frozenset({2, 3}), {2: {0}, 3: {0, 1}})]
    report(1, "four-state illustration decomposes exactly", ok,
           time.time() - t0, 1.0)


def test_criterion_2_perturbation_identity():
    t0 = time.time()
    rng = np.random.default_rng(202401)
    checked = 0
    worst = 0.0
    worst_classic = 0.0
    while checked < 200:
        m = random_mdp(rng, int(rng.integers(2, 9)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=30)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        r, c = random_utilities(rng, m)
        delta = float(rng.uniform(0.05, 0.95))
        lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, r, c, delta)
        worst = max(worst, abs(lhs - rhs))
        # unit cost: the identity must collapse onto the classical one
        ones = np.full(m.n_pairs, 1.0)
        lhs1, rhs1 = ratio_perturbation_identity_check(m, mu, mu_p, r, ones,
                                                       delta)
        d = deviation_vector(m, mu, mu_p, r)
        mu_d = blend(mu, mu_p, delta)
        pi_d = limit_distribution(analyze(m, mu_d))
        classical = delta * float(pi_d @ d)
        worst_classic = max(worst_classic, abs(rhs1 - classical),
                            abs(lhs1 - rhs1))
        checked += 1
    ok = worst <= 1e-8 and worst_classic <= 1e-10
    report(2, f"efficiency-difference identity on {checked} unichain "
              f"instances (worst {worst:.2e}, unit-cost {worst_classic:.2e})",
           ok, time.time() - t0, 30.0)


def test_criterion_3_lfp_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(202402)
    worst = 0.0
    for _ in range(100):
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)),
                                     int(rng.integers(2, 4)))
        r, c = random_utilities(rng, m)
        sol = solve_ratio_lfp(m, r, c)
        oracle = brute_force_best_ratio(m, r, c, m.initial)
        worst = max(worst, abs(sol.value - oracle))
    ok = worst <= 1e-7
    report(3, f"ratio program equals deterministic-policy enumeration on "
              f"100 instances (worst gap {worst:.2e})", ok,
           time.time() - t0, 120.0)


def test_criterion_4_epsilon_optimality():
    t0 = time.time()
    rng = np.random.default_rng(202403)
    count = 0
    ok = True
    while count < 100:
        pm = random_communicating_product(rng, int(rng.integers(2, 8)), 2,
                                          n_pairs=int(rng.integers(1, 3)))
        r, c = random_utilities(rng, pm)
        for eps in (1e-3, 1e-2, 1e-1):
            rep = synth_general(pm, r, c, eps, "es" if count % 2 else "ex")
            ca = analyze(pm, rep.policy)
            got = efficiency(ca, pm, r, c, rep.policy, pm.initial)
            ok = ok and got >= rep.value - eps - 1e-8
            ok = ok and rep.certificate.accepted
            chosen = ec_parts(pm, amecs_of(pm)[rep.amec_chosen])[0]
            mec = next(states for states, _ in
                       (ec_parts(pm, mm) for mm in mec_decompose(pm))
                       if chosen <= states)
            ok = ok and all(set(comp) <= mec
                            for comp in rep.certificate.recurrent_classes)
            ok = ok and rep.certificate.absorption_defect <= 1e-9
            if not ok:
                break
        count += 1
        if not ok:
            break
    report(4, f"epsilon-optimality and acceptance certificates on {count} "
              "communicating instances x three epsilons", ok,
           time.time() - t0, 180.0)


def test_criterion_5_general_case():
    t0 = time.time()
    rng = np.random.default_rng(202404)
    count = 0
    ok = True
    eps = 0.01
    while count < 50:
        inst = random_multichain_product(rng)
        if inst is None:
            continue
        pm, r, c = inst
        from effsynth.graph import almost_sure_region
        if not almost_sure_region(pm, amecs_of(pm)).all():
            continue
        rep = synth_general(pm, r, c, eps)
        rk, _ = build_reward_k(pm, amecs_of(pm), list(rep.amec_values),
                               r, c)
        gain = solve_avg_reward_lp(pm, rk).gain
        ca = analyze(pm, rep.policy)
        weighted = float(np.mean([efficiency(ca, pm, r, c, rep.policy, s)
                                  for s in range(pm.n_states)]))
        ok = ok and weighted >= gain - eps - 1e-7
        # the literal guarantee: achieve the claimed optimum from the start
        from_init = efficiency(ca, pm, r, c, rep.policy, pm.initial)
        ok = ok and from_init >= rep.value - eps - 1e-7
        amec_states = [ec_parts(pm, amec)[0] for amec in amecs_of(pm)]
        ok = ok and all(any(set(comp) <= states for states in amec_states)
                        for comp in ca.recurrent_classes)
        if not ok:
            break
        count += 1
    report(5, f"general-case value vs surrogate-reward gain on {count} "
              "multichain instances", ok, time.time() - t0, 180.0)


def test_criterion_6_es_ex_relationship():
    t0 = time.time()
    rng = np.random.default_rng(202405)
    ok = True
    # dominance on random instances
    done = 0
    while done < 20:
        pm = random_communicating_product(rng, int(rng.integers(2, 6)), 2)
        r, c = random_utilities(rng, pm)
        sol = solve_ratio_lfp(pm, r, c)
        mu_opt, _ = decode_ratio_policy(pm, sol)
        mu_irr = uniform_policy(pm)
        eps = float(rng.choice([1e-3, 1e-2, 1e-1]))
        es = perturbation_degree_estimated(pm, mu_opt, mu_irr, r, c, eps)
        if es.degenerate:
            continue
        ex = perturbation_degree_exact(pm, mu_opt, mu_irr, r, c, eps)
        ok = ok and ex.delta >= es.delta
        done += 1
    # linearity of the closed-form degree in epsilon, below the clamp
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    base = perturbation_degree_estimated(m, mu_opt, mu_irr, r, c, 1e-4).delta
    for mult in (2.0, 4.0, 8.0, 64.0):
        d = perturbation_degree_estimated(m, mu_opt, mu_irr, r, c,
                                          1e-4 * mult).delta
        ok = ok and abs(d - mult * base) <= 1e-9
    # constructed instance where the bound is at least 5x conservative
    es = perturbation_degree_estimated(m, mu_opt, mu_irr, r, c, 0.01)
    ex = perturbation_degree_exact(m, mu_opt, mu_irr, r, c, 0.01)
    ratio = ex.delta / es.delta
    ok = ok and ratio >= 5.0
    report(6, f"the exact degree dominates the closed-form one (constructed "
              f"ratio {ratio:.0f}x, linear in epsilon)", ok,
           time.time() - t0, 60.0)


def test_criterion_7_case_study_1():
    t0 = time.time()
    params = Case1Params()
    m, d1, d2, reward, cost = gen_case1(params)
    ok = True

    # all nine cost-table entries, looked up at the exact distances
    ok = ok and COST_BY_DISTANCE == {0: 3.2, 1: 3.0, 2: 2.7, 3: 2.5, 4: 1.5,
                                     5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}
    for s in range(m.n_states):
        tag = m.state_names[s].split("_")[0][1:]
        row, col = map(int, tag.split("c"))
        dist = min(abs(row - dr) + abs(col - dc)
                   for dr, dc in params.destinations)
        ok = ok and all(cost(s, a) == COST_BY_DISTANCE[dist]
                        for a in m.available[s])

    # exhaustive transition-law scan (restated in test_casestudies; here the
    # structural invariant is probabilistic rows only at pickup opportunities)
    prob = params.resolved_field()
    dests = set(params.destinations)
    for s in range(m.n_states):
        tag, carry = m.state_names[s].split("_")
        row, col = map(int, tag[1:].split("c"))
        carrying = carry == "1"
        for a in m.available[s]:
            dist = m.trans[(s, a)]
            total = sum(dist.values())
            ok = ok and abs(total - 1.0) <= 1e-12
            if carrying and (row, col) not in dests:
                ok = ok and list(dist.values()) == [1.0]

    # task 1: unperturbed optimum circulates the bottom rows, delivering
    pm1 = build_product(m, d1)
    r1, c1 = lift_utilities(pm1, reward, cost)
    rep1 = synth_general(pm1, r1, c1, 0.01)
    ca1 = analyze(pm1, rep1.policy)
    rec = ca1.recurrent_classes[0]
    rows = {int(pm1.state_names[s].split("c")[0][1:]) for s in rec}
    ok = ok and rows <= {8, 9}
    ok = ok and any("d" in pm1.labels[s] for s in rec)
    ok = ok and rep1.certificate.accepted

    # task 2: charging cell keeps positive limit probability at every epsilon
    pm2 = build_product(m, d2)
    r2, c2 = lift_utilities(pm2, reward, cost)
    for method in ("es", "ex"):
        for eps in (0.005, 0.01, 0.05, 0.1):
            rep2 = synth_general(pm2, r2, c2, eps, method)
            ca2 = analyze(pm2, rep2.policy)
            limit = limit_distribution(ca2)
            charge = sum(limit[i] for i in range(pm2.n_states)
                         if "c" in pm2.labels[i])
            ok = ok and charge > 1e-8
            ok = ok and rep2.certificate.accepted
    report(7, "delivery case study: exact cost table, transition law, "
              "bottom-row loop, recurring charge visits", ok,
           time.time() - t0, 120.0)


def test_criterion_8_monte_carlo():
    """Statistical consistency of the pathwise estimator.

    Instances whose synthesized chain has a fully deterministic recurrent
    cycle are skipped: their rollouts carry zero sampling variance and only a
    O(1/steps) truncation bias, so a sigma-based band is ill-posed for them.
    """
    t0 = time.time()
    rng = np.random.default_rng(202406)
    ok = True
    first_stats = None
    k = 0
    while k < 20:
        pm = random_communicating_product(rng, int(rng.integers(3, 7)), 2)
        r, c = random_utilities(rng, pm)
        rep = synth_general(pm, r, c, 0.05)
        ca = analyze(pm, rep.policy)
        P = dense_p(ca.chain)
        stochastic = any(
            np.any((P[s] > 1e-12) & (P[s] < 1 - 1e-12))
            for s in ca.recurrent_classes[0])
        if not stochastic:
            continue
        analytic = efficiency(ca, pm, r, c, rep.policy, pm.initial)
        cfg = RolloutConfig(steps=10 ** 6, rollouts=8, seed=1000 + k)
        stats = simulate(pm, rep.policy, r, c, cfg)
        ok = ok and abs(stats.mean_ratio - analytic) <= 3 * stats.stderr
        if k == 0:
            first_stats = (pm, rep.policy, r, c, cfg, stats)
        k += 1
    pm, policy, r, c, cfg, stats = first_stats
    again = simulate(pm, policy, r, c, cfg)
    ok = ok and again == stats
    report(8, "pathwise ratios within 3 stderr of analytic on 20 synthesized "
              "policies; same-seed rerun bitwise identical", ok,
           time.time() - t0, 300.0)


def test_criterion_9_chain_algebra():
    t0 = time.time()
    rng = np.random.default_rng(202407)
    worst_alg = 0.0
    worst_res = 0.0
    for _ in range(500):
        m = random_mdp(rng, int(rng.integers(2, 9)), 2)
        ca = analyze(m, random_policy(rng, m))
        P, star = dense_p(ca.chain), ca.limit_matrix
        for prod in (P @ star, star @ P, star @ star):
            worst_alg = max(worst_alg, float(np.max(np.abs(prod - star))))
        v = rng.normal(size=m.n_states)
        a = np.eye(m.n_states) - P + star
        g = np.linalg.solve(a, v)
        worst_res = max(worst_res, float(np.max(np.abs(a @ g - v))))
    ok = worst_alg <= 1e-9 and worst_res <= 1e-8
    report(9, f"limit-matrix algebra (worst {worst_alg:.2e}) and potential "
              f"residuals (worst {worst_res:.2e}) on 500 chains", ok,
           time.time() - t0, 30.0)


def test_criterion_10_case_study_2_threshold():
    t0 = time.time()
    m, dra, reward_family, cost = gen_case2()
    flips = 0
    prev = None
    values = []
    accepting_flags = []
    for bonus in np.linspace(0.0, 80.0, 17):
        sol = solve_ratio_lfp(m, reward_family(float(bonus)).pair_values(m),
                              cost.pair_values(m))
        policy, _ = decode_ratio_policy(m, sol)
        ca = analyze(m, policy)
        labs = set()
        for s in ca.recurrent_classes[0]:
            labs |= m.labels[s]
        acc = "g" in labs and "r" in labs
        accepting_flags.append(acc)
        values.append(sol.value)
        if prev is not None and acc != prev:
            flips += 1
        prev = acc
    ok = (flips == 1 and accepting_flags[0] is False
          and accepting_flags[-1] is True
          and all(b >= a - 1e-9 for a, b in zip(values, values[1:])))
    report(10, "factory case study: one bonus threshold separates the quiet "
               "loop from the command-then-material cycle", ok,
           time.time() - t0, 120.0)
