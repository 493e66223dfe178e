import sys

import numpy as np
import pytest

from effsynth import chain, graph, lp, model, synthesis
from effsynth.casestudies import gen_case1
from effsynth.model import (Mdp, ModelError, UtilityFn, blend, build_product,
                            induce_chain, lift_utilities, uniform_policy)
from effsynth.graph import (almost_sure_region, maec_decompose, mec_decompose,
                            restrict)
from effsynth.chain import (NotUnichain, analyze, average_utility,
                            efficiency, ratio_deviation)
from effsynth.lp import (decode_ratio_policy, solve_avg_reward_lp,
                         solve_ratio_lfp)
from effsynth.synthesis import (TaskUnsatisfiable, Tolerances,
                                build_reward_k,
                                perturbation_degree_estimated,
                                perturbation_degree_exact, synth_general)

from conftest import (amecs_of, brute_force_best_ratio,
                      delivery_grid_product, deterministic, ec_parts,
                      example1_product, random_communicating_mdp,
                      random_communicating_product, random_mdp,
                      random_utilities, rule_of, settled_probes)


def two_state_unit_cost_instance():
    """Hand-checkable: deviation gap 2, minimum cost 1, optimal value 1."""
    m = Mdp(["h", "t"], ["stay", "go"], 0,
            {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}, (1, 0): {0: 1.0}})
    r = UtilityFn({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0},
                  "reward").pair_values(m)
    c = np.full(m.n_pairs, 1.0)
    mu_opt = deterministic(m, {0: 0, 1: 0})
    mu_irr = deterministic(m, {0: 1, 1: 0})
    return m, r, c, mu_opt, mu_irr


def lopsided_instance():
    """A rarely visited state carries a huge deviation, so the closed-form
    degree is far more conservative than the bisected one."""
    m = Mdp(["hub", "way", "far"], ["a", "b"], 0,
            {(0, 0): {0: 1.0}, (0, 1): {1: 1.0},
             (1, 0): {0: 0.9, 2: 0.1},
             (2, 0): {0: 1.0}, (2, 1): {2: 1.0}})
    r = UtilityFn({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0,
                   (2, 0): 0.0, (2, 1): -50.0}, "reward").pair_values(m)
    c = np.full(m.n_pairs, 1.0)
    mu_opt = deterministic(m, {0: 0, 1: 0, 2: 0})
    mu_irr = uniform_policy(m)
    return m, r, c, mu_opt, mu_irr


def test_uniform_irreducible_makes_component_recurrent(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(3, 8)), 2)
        mecs = mec_decompose(m)
        for ec in mecs:
            sub, ids = restrict(m, ec)
            p = uniform_policy(sub)
            ca = analyze(sub, p)
            assert ca.recurrent_classes == (tuple(range(sub.n_states)),)


def test_estimated_degree_formula():
    m, r, c, mu_opt, mu_irr = two_state_unit_cost_instance()
    ca_opt = analyze(m, mu_opt)
    plan = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c, 0.01)
    assert plan.c_min == pytest.approx(1.0)
    assert plan.d_inf == pytest.approx(2.0)
    assert plan.delta == pytest.approx(0.005)
    assert plan.method == "estimated" and not plan.degenerate


def test_estimated_degree_linear_in_epsilon():
    m, r, c, mu_opt, mu_irr = two_state_unit_cost_instance()
    ca_opt = analyze(m, mu_opt)
    deltas = [perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c,
                                            eps).delta
              for eps in (0.001, 0.002, 0.004, 0.008)]
    base = deltas[0] / 0.001
    for eps, d in zip((0.001, 0.002, 0.004, 0.008), deltas):
        assert d == pytest.approx(base * eps, abs=1e-9)


def test_estimated_degree_clamps_below_one():
    m, r, c, mu_opt, mu_irr = two_state_unit_cost_instance()
    ca_opt = analyze(m, mu_opt)
    plan = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c,
                                         1000.0)
    assert 0 < plan.delta < 1


def test_estimated_degree_degenerate_when_policies_equal():
    m, r, c, mu_opt, _ = two_state_unit_cost_instance()
    ca_opt = analyze(m, mu_opt)
    plan = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_opt, r, c, 0.01)
    assert plan.degenerate
    assert plan.delta == 0.5
    assert plan.d_inf == 0.0


def test_estimated_degree_guarantees_epsilon(rng):
    """The blended policy never loses more than epsilon of efficiency."""
    done = 0
    while done < 15:
        pm = random_communicating_product(rng, int(rng.integers(2, 6)), 2)
        r, c = random_utilities(rng, pm)
        from effsynth.lp import solve_ratio_lfp, decode_ratio_policy
        sol = solve_ratio_lfp(pm, r, c)
        mu_opt, ca_opt = decode_ratio_policy(pm, sol)
        mu_irr = uniform_policy(pm)
        eps = float(rng.choice([1e-3, 1e-2, 1e-1]))
        plan = perturbation_degree_estimated(ca_opt, pm, mu_opt, mu_irr, r, c,
                                             eps)
        mu_d = blend(mu_opt, mu_irr, plan.delta)
        ca = analyze(pm, mu_d)
        got = efficiency(ca, pm, r, c, mu_d, pm.initial)
        assert got >= sol.value - eps - 1e-8
        done += 1


def test_exact_degree_saturates_for_huge_epsilon():
    m, r, c, mu_opt, mu_irr = two_state_unit_cost_instance()
    ca_opt = analyze(m, mu_opt)
    plan = perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, 100.0)
    assert plan.delta == pytest.approx(1.0 - 1e-6)


def test_exact_degree_shrinks_with_epsilon():
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    ca_opt = analyze(m, mu_opt)
    deltas = [perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c,
                                        eps).delta
              for eps in (1e-5, 1e-3, 1e-1)]
    assert deltas[0] < deltas[1] < deltas[2]
    assert deltas[0] < 1e-3


def test_exact_degree_dominates_estimated(rng):
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    ca_opt = analyze(m, mu_opt)
    for eps in (1e-4, 1e-3, 1e-2):
        es = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c,
                                           eps)
        ex = perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, eps)
        assert ex.delta >= es.delta


def test_exact_degree_much_larger_on_lopsided_instance():
    """The closed-form bound prices the worst state even when it is almost
    never visited; bisection prices the actual limit distribution."""
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    ca_opt = analyze(m, mu_opt)
    es = perturbation_degree_estimated(ca_opt, m, mu_opt, mu_irr, r, c, 0.01)
    ex = perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, 0.01)
    assert ex.delta >= 5 * es.delta


def test_exact_degree_still_qualifies(rng):
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    ca_opt = analyze(m, mu_opt)
    for eps in (1e-4, 1e-2):
        plan = perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, eps)
        mu_d = blend(mu_opt, mu_irr, plan.delta)
        ca = analyze(m, mu_d)
        assert efficiency(ca, m, r, c, mu_d, 0) >= \
            efficiency(ca_opt, m, r, c, mu_opt, 0) - eps - 1e-10


def blend_efficiency(m, mu_opt, mu_irr, r, c, delta):
    """The full evaluator's efficiency, from the initial state, of the blend
    of degree delta."""
    w = blend(mu_opt, mu_irr, delta)
    return efficiency(analyze(m, w), m, r, c, w, m.initial)


def qualifies(m, mu_opt, mu_irr, r, c, epsilon, delta):
    """The full evaluator's verdict on the blend of degree delta: its
    efficiency is within epsilon of mu_opt's."""
    inst = (m, mu_opt, mu_irr, r, c)
    return blend_efficiency(*inst, delta) >= \
        blend_efficiency(*inst, 0.0) - epsilon - 1e-12


def bisected_degree(m, mu_opt, mu_irr, r, c, epsilon, width=1e-6):
    """The exact degree by plain bisection on the full evaluator, warm
    started from the closed-form bound: the reference the Newton
    search is held to."""
    _, d = ratio_deviation(analyze(m, mu_opt), m, mu_opt, mu_irr, r, c)
    d_inf = float(np.max(np.abs(d)))

    def ok(delta):
        return qualifies(m, mu_opt, mu_irr, r, c, epsilon, delta)

    hi = 1.0 - width
    if ok(hi):
        return hi
    lo = 0.0
    if d_inf > 1e-14:
        guess = min(epsilon * float(np.min(c)) / d_inf, hi / 2)
        if ok(guess):
            lo = guess
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def communicating_blends(rng, count):
    """count random communicating models, each with its ratio-optimal
    policy and the uniform (irreducible) one, as the degree's leading
    arguments (m, mu_opt, mu_irr, r, c)."""
    out = []
    while len(out) < count:
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)), 2)
        r, c = random_utilities(rng, m)
        mu_opt, _ = decode_ratio_policy(m, solve_ratio_lfp(m, r, c))
        out.append((m, mu_opt, uniform_policy(m), r, c))
    return out


def analyzed(inst):
    """A degree instance (m, mu_opt, mu_irr, r, c) led by mu_opt's chain
    analysis, as the degree rules take it."""
    return (analyze(*inst[:2]), *inst)


def lopsided_blend():
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    return m, mu_opt, mu_irr, r, c


def probe_ratio(m, mu_opt, mu_irr, r, c, delta):
    """The exact degree's probe: the stationary ratio J(delta) of the blend
    of degree delta, as the search computes it."""
    return synthesis._probe(m, mu_opt, mu_irr, induce_chain(m, mu_irr), r,
                            c, delta)[0]


def test_exact_degree_agrees_with_bisection(rng):
    """On 30 random communicating models and the lopsided instance, the
    Newton search's degree and plain bisection's both qualify, the search
    never returns less than the closed-form degree, and wherever the
    verdict changes once along a 200-point grid the two degrees lie within
    the width of each other.  At each returned degree the full analysis
    finds one class holding every state, and its efficiency is the probe's
    ratio bit for bit: the probe is its own certificate."""
    grid = np.linspace(0.0, 1.0 - 1e-6, 201)[1:]
    compared = 0
    for inst in communicating_blends(rng, 30) + [lopsided_blend()]:
        j_grid = np.array([blend_efficiency(*inst, x) for x in grid])
        j_opt = blend_efficiency(*inst, 0.0)
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            new = perturbation_degree_exact(*analyzed(inst), eps)
            old = bisected_degree(*inst, eps)
            m = inst[0]
            ca = analyze(m, blend(*inst[1:3], new.delta))
            assert ca.recurrent_classes == (tuple(range(m.n_states)),)
            assert blend_efficiency(*inst, new.delta) == \
                probe_ratio(*inst, new.delta)
            assert qualifies(*inst, eps, new.delta)
            assert qualifies(*inst, eps, old)
            es = perturbation_degree_estimated(*analyzed(inst), eps)
            if not es.degenerate:
                assert new.delta >= min(es.delta, 1.0 - 1e-6)
            verdict = j_grid >= j_opt - eps - 1e-12
            if verdict[0] and np.count_nonzero(np.diff(verdict)) <= 1:
                assert abs(new.delta - old) <= 1e-6
                compared += 1
    assert compared >= 60


def test_exact_degree_slope_matches_finite_difference(rng):
    """The probe's J'(delta), read from its own stationary factor, matches
    a central difference of the probe's J to a relative 1e-7 on the
    grid-9 MAEC and 10 random communicating models, near 0, at 0.05 and at
    0.5; its J is the full evaluator's, bit for bit."""
    h = 1e-5
    for m, mu_opt, mu_irr, r, c in ([case1_task2_blend()]
                                    + communicating_blends(rng, 10)):
        chain_irr = induce_chain(m, mu_irr)

        def probe(delta):
            return synthesis._probe(m, mu_opt, mu_irr, chain_irr, r, c,
                                    delta)
        for delta in (1e-3, 0.05, 0.5):
            j, slope = probe(delta)
            assert j == blend_efficiency(m, mu_opt, mu_irr, r, c, delta)
            diff = (probe(delta + h)[0] - probe(delta - h)[0]) / (2 * h)
            assert abs(slope - diff) <= 1e-7 * max(abs(slope), abs(diff))


def count_degree_probes(monkeypatch):
    """Counts of the exact degree's cheap probes (synthesis._probe calls)
    and full evaluations (analyze called from synthesis; the perturbation
    step's own analysis runs inside chain)."""
    probes = {"cheap": 0, "full": 0}
    for key, name in (("cheap", "_probe"),
                      ("full", "analyze")):
        def counted(*args, _key=key, _orig=getattr(synthesis, name)):
            probes[_key] += 1
            return _orig(*args)
        monkeypatch.setattr(synthesis, name, counted)
    return probes


def case1_task2_blend():
    """Case 1 task 2 (grid 9): its one MAEC covers the product; the
    ratio-optimal policy there and the uniform one, as (m, mu_opt, mu_irr,
    r, c)."""
    m, _, task2, reward, cost = gen_case1()
    pm = build_product(m, task2)
    r, c = lift_utilities(pm, reward, cost)
    (maec,) = maec_decompose(pm)
    sub, _ = restrict(pm, maec)
    r, c = r[sub.parent_pair], c[sub.parent_pair]
    mu_opt, _ = decode_ratio_policy(sub, solve_ratio_lfp(sub, r, c))
    return sub, mu_opt, uniform_policy(sub), r, c


def test_ratio_deviation_reads_the_decoders_analysis(rng):
    """The analysis decode_ratio_policy returns with the optimal policy
    serves the perturbation step: ratio_deviation gives bit for bit the
    (j, d) that a fresh analysis of that policy gives, on the case-1 grid-9
    MAEC and on random communicating models."""
    sub, _, _, r, c = case1_task2_blend()
    instances = [(sub, r, c)]
    while len(instances) < 11:
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)), 2)
        instances.append((m, *random_utilities(rng, m)))
    for m, r, c in instances:
        mu_opt, ca_opt = decode_ratio_policy(m, solve_ratio_lfp(m, r, c))
        inst = (m, mu_opt, uniform_policy(m), r, c)
        j, d = ratio_deviation(ca_opt, *inst)
        j_fresh, d_fresh = ratio_deviation(analyze(m, mu_opt), *inst)
        assert j == j_fresh
        assert np.array_equal(d, d_fresh)


@pytest.mark.parametrize("case, eps", [("case1", 0.01), ("lopsided", 1e-5),
                                       ("lopsided", 1e-3),
                                       ("lopsided", 1e-1)])
def test_exact_degree_probe_budget(monkeypatch, case, eps):
    """Exactly 4 cheap probes on case 1 (three Newton steps and one a
    quarter width past the root), at most 10 on the lopsided instance, and
    no full evaluation (each probe is its own certificate); the returned
    degree lies below 1 - width on these instances."""
    inst = case1_task2_blend() if case == "case1" else lopsided_blend()
    probes = count_degree_probes(monkeypatch)
    plan = perturbation_degree_exact(*analyzed(inst), eps)
    assert plan.delta < 1.0 - 1e-6
    if case == "case1":
        assert probes["cheap"] == 4
    else:
        assert probes["cheap"] <= 10
    assert probes["full"] == 0


def test_exact_degree_raises_when_nothing_certifies(monkeypatch):
    """A probe that finds every blend settled at far, whose ratio -25 delta
    never comes within epsilon of the optimum 1, leaves no qualifying
    positive degree: NotUnichain, the solver-failure exit."""
    m, r, c, mu_opt, mu_irr = lopsided_instance()
    ca_opt = analyze(m, mu_opt)
    settled_probes(monkeypatch, 2)
    with pytest.raises(NotUnichain, match="without a certified positive"):
        perturbation_degree_exact(ca_opt, m, mu_opt, mu_irr, r, c, 1e-3)


def one_state_linear_instance():
    """One state with two self-loops of unit cost, rewards 1 and 0: the
    blend of degree delta has J(delta) = 1 - delta / 2, a line, so the
    first Newton step lands on the root of f itself."""
    m = Mdp(["s"], ["a", "b"], 0, {(0, 0): {0: 1.0}, (0, 1): {0: 1.0}})
    r = UtilityFn({(0, 0): 1.0, (0, 1): 0.0}, "reward").pair_values(m)
    mu_opt = deterministic(m, {0: 0})
    return m, mu_opt, uniform_policy(m), r, np.full(m.n_pairs, 1.0)


@pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3])
def test_exact_degree_closes_past_an_exact_newton_root(monkeypatch, eps):
    """Where the Newton step lands on the root, whose verdict is left to
    rounding, the next probe goes a quarter width past it and fails, so
    the search closes in 2 probes; the degree qualifies and lies within
    the width below the root, 2 eps + 2e-12 (the target's slack)."""
    inst = one_state_linear_instance()
    probes = count_degree_probes(monkeypatch)
    plan = perturbation_degree_exact(*analyzed(inst), eps)
    assert probes["cheap"] == 2
    assert qualifies(*inst, eps, plan.delta)
    assert 2 * eps - 1e-6 <= plan.delta <= 2 * eps + 3e-12


def test_exact_degree_terminates_below_float_spacing():
    """A width far below the float spacing near the degree ends the search
    when no float lies inside the bracket; the degree still qualifies and
    agrees with the default width's."""
    inst = lopsided_blend()
    fine = perturbation_degree_exact(*analyzed(inst), 1e-3, width=1e-20)
    assert qualifies(*inst, 1e-3, fine.delta)
    assert abs(fine.delta
               - perturbation_degree_exact(*analyzed(inst), 1e-3).delta) \
        <= 1e-6


def test_exact_degree_survives_a_search_cut_off(monkeypatch):
    """A search stopped at its probe cap (1, 2 or 3 probes) returns the
    largest probe that passed, which qualifies and is no smaller than the
    closed-form degree: the first probe, the Newton step from 0, already
    lies at or above it, and on the grid-9 MAEC, where J is convex, every
    Newton step passes.  The degree grows with the cap, up to the full
    search's."""
    inst = case1_task2_blend()
    es = perturbation_degree_estimated(*analyzed(inst), 0.01).delta
    full = perturbation_degree_exact(*analyzed(inst), 0.01).delta
    probes = count_degree_probes(monkeypatch)
    degrees = []
    for cap in (1, 2, 3):
        monkeypatch.setattr(synthesis, "MAX_PROBES", cap)
        probes["cheap"] = 0
        degrees.append(perturbation_degree_exact(*analyzed(inst),
                                                 0.01).delta)
        assert probes["cheap"] == cap
        assert qualifies(*inst, 0.01, degrees[-1])
    assert es <= degrees[0] < degrees[1] < degrees[2] <= full


@pytest.mark.parametrize("field, bad", [
    ("bisect_width", 0.0), ("bisect_width", -1.0), ("bisect_width", 1.0),
    ("bisect_width", np.nan), ("bisect_width", np.inf),
    ("support_threshold", -1e-9), ("support_threshold", 1.0),
    ("support_threshold", np.nan), ("k_margin", 0.0),
    ("k_margin", np.inf), ("k_margin", np.nan)])
def test_tolerances_reject_out_of_range(field, bad):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: bad})


def test_tolerances_accept_their_range_ends():
    Tolerances(support_threshold=0.0, bisect_width=1e-20, k_margin=1e-300)


def test_synth_no_perturbation_when_optimum_accepts():
    """Ratio-optimal loop on the strong state already witnesses acceptance."""
    pm = example1_product()
    r = UtilityFn({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0,
                   (2, 0): 0.0, (3, 0): 0.0, (3, 1): 5.0},
                  "reward").pair_values(pm)
    c = np.full(pm.n_pairs, 1.0)
    sub, ids = restrict(pm, amecs_of(pm)[0])
    rep = synth_general(sub, r[sub.parent_pair], c[sub.parent_pair], 0.01)
    assert rep.no_perturbation
    assert rep.plan is None
    assert rep.value == pytest.approx(5.0)
    assert rep.certificate.accepted


def test_synth_unique_policy_single_action():
    pm = Mdp(["x", "y"], ["a"], 0,
             {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}},
             acc_pairs=[(set(), {1})])
    r = UtilityFn({(0, 0): 2.0, (1, 0): 0.0}, "reward").pair_values(pm)
    c = np.full(pm.n_pairs, 1.0)
    rep = synth_general(pm, r, c, 0.05)
    ca = analyze(pm, rep.policy)
    assert rep.value == pytest.approx(
        efficiency(ca, pm, r, c, rep.policy, 0))
    assert rep.value == pytest.approx(1.0)


def test_synth_raises_without_accepting_component():
    pm = Mdp(["x", "y"], ["a"], 0,
             {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}},
             acc_pairs=[({0}, {1})])  # the only loop passes through B
    r = np.full(pm.n_pairs, 1.0)
    c = np.full(pm.n_pairs, 1.0)
    with pytest.raises(TaskUnsatisfiable):
        synth_general(pm, r, c, 0.1)


def test_synth_general_epsilon_optimal_on_communicating_products(rng):
    done = 0
    while done < 20:
        pm = random_communicating_product(rng, int(rng.integers(2, 7)), 2,
                                          n_pairs=int(rng.integers(1, 3)))
        r, c = random_utilities(rng, pm)
        eps = float(rng.choice([1e-3, 1e-2, 1e-1]))
        method = "es" if done % 2 == 0 else "ex"
        rep = synth_general(pm, r, c, eps, method)
        ca = analyze(pm, rep.policy)
        got = efficiency(ca, pm, r, c, rep.policy, pm.initial)
        assert got >= rep.value - eps - 1e-8
        assert rep.certificate.accepted
        # recurrent classes stay within the chosen accepting component
        chosen = ec_parts(pm, amecs_of(pm)[rep.amec_chosen])[0]
        mec = next(states for states, _ in
                   (ec_parts(pm, m) for m in mec_decompose(pm))
                   if chosen <= states)
        for comp in rep.certificate.recurrent_classes:
            assert set(comp) <= mec
        done += 1


def test_build_reward_k_values_and_level():
    pm = example1_product()
    amecs = amecs_of(pm)
    r = UtilityFn({(0, 0): 2.0, (0, 1): -2.0, (1, 0): 1.0,
                   (2, 0): 0.5, (3, 0): 0.0, (3, 1): 1.5},
                  "reward").pair_values(pm)
    c = np.full(pm.n_pairs, 0.5)
    rk, big_k = build_reward_k(pm, amecs, [0.75], r, c)
    assert big_k == pytest.approx(-2.0 / 0.5 - 1.0)
    assert big_k < -2.0 / 0.5
    assert rk.shape == (pm.n_pairs,)
    for j, (s, a) in enumerate(pm.state_action_pairs()):
        if s in ec_parts(pm, amecs[0])[0]:
            assert rk[j] == pytest.approx(0.75)
        else:
            assert rk[j] == pytest.approx(big_k)


def test_synth_general_matches_communicating_on_communicating_input(rng):
    """On a communicating product synth_general claims the communicating
    case's optimum: the best ratio, over deterministic policies, of the
    best MAEC."""
    done = 0
    while done < 8:
        pm = random_communicating_product(rng, int(rng.integers(2, 6)), 2)
        r, c = random_utilities(rng, pm)
        rep = synth_general(pm, r, c, 0.01)
        best = -np.inf
        for maec in maec_decompose(pm):
            sub, _ = restrict(pm, maec)
            pp = sub.parent_pair
            best = max(best, brute_force_best_ratio(sub, r[pp], c[pp],
                                                    sub.initial))
        assert rep.value == pytest.approx(best, abs=1e-8)
        done += 1


def two_amec_instance():
    """Start feeds only the lower-valued block; the better block floats free."""
    trans = {
        (0, 0): {1: 1.0},
        (1, 0): {2: 1.0}, (2, 0): {1: 1.0},
        (3, 0): {4: 1.0}, (4, 0): {3: 1.0},
    }
    pm = Mdp(["start", "a1", "a2", "b1", "b2"], ["a"], 0, trans,
             acc_pairs=[(set(), {1, 3})])
    r = UtilityFn({(0, 0): 0.0, (1, 0): 1.0, (2, 0): 1.0,
                   (3, 0): 3.0, (4, 0): 3.0}, "reward").pair_values(pm)
    c = np.full(pm.n_pairs, 1.0)
    return pm, r, c


def test_synth_general_two_amec_reachability():
    pm, r, c = two_amec_instance()
    rep = synth_general(pm, r, c, 0.01)
    assert sorted(rep.amec_values) == [pytest.approx(1.0), pytest.approx(3.0)]
    # from the start state only the value-1 block is reachable
    assert rep.value == pytest.approx(1.0, abs=1e-8)
    ca = analyze(pm, rep.policy)
    assert efficiency(ca, pm, r, c, rep.policy, 0) >= 1.0 - 0.01 - 1e-8
    amec_states = [ec_parts(pm, amec)[0] for amec in amecs_of(pm)]
    for comp in ca.recurrent_classes:
        assert any(set(comp) <= states for states in amec_states)


def trap_instance(acc_pairs=((set(), {2, 4}),)):
    """A trap state and a risky action outside the almost-sure region, and
    two accepting blocks inside it."""
    trans = {
        (0, 0): {1: 0.5, 2: 0.5},  # risky: may fall into the trap
        (0, 1): {2: 1.0},          # safe: straight into the left block
        (1, 0): {1: 1.0},
        (2, 0): {3: 1.0}, (3, 0): {2: 1.0},
        (4, 0): {5: 1.0}, (5, 0): {4: 1.0},
    }
    pm = Mdp(["start", "trap", "a1", "a2", "b1", "b2"],
             ["a", "b"], 0, trans, acc_pairs=acc_pairs)
    r = UtilityFn({(0, 0): 0.0, (0, 1): 0.0, (1, 0): 9.0,
                   (2, 0): 1.0, (3, 0): 1.0, (4, 0): 2.0, (5, 0): 2.0},
                  "reward").pair_values(pm)
    c = np.full(pm.n_pairs, 1.0)
    return pm, r, c


def test_synth_general_region_restriction_with_trap():
    """A trap state and a risky action must be cut away before the basic
    policy is computed; the returned policy covers exactly the safe region."""
    pm, r, c = trap_instance()
    rep = synth_general(pm, r, c, 0.01)
    assert set(rule_of(pm, rep.policy)) == {0, 2, 3, 4, 5}
    assert rule_of(pm, rep.policy)[0] == {1: 1.0}      # the safe action
    assert rep.value == pytest.approx(1.0, abs=1e-8)
    assert rep.certificate.accepted
    for comp in rep.certificate.recurrent_classes:
        assert set(comp) <= {2, 3} or set(comp) <= {4, 5}


def test_synth_general_unsatisfiable_without_amec():
    pm = Mdp(["x"], ["a"], 0, {(0, 0): {0: 1.0}}, acc_pairs=[({0}, {0})])
    r = np.full(pm.n_pairs, 1.0)
    c = np.full(pm.n_pairs, 1.0)
    with pytest.raises(TaskUnsatisfiable):
        synth_general(pm, r, c, 0.1)


def test_synth_general_unsatisfiable_from_initial():
    # accepting loop exists but the initial state cannot reach it
    trans = {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}}
    pm = Mdp(["trap", "good"], ["a"], 0, trans, acc_pairs=[(set(), {1})])
    r = np.full(pm.n_pairs, 1.0)
    c = np.full(pm.n_pairs, 1.0)
    with pytest.raises(TaskUnsatisfiable):
        synth_general(pm, r, c, 0.1)


def test_arguments_are_checked_before_any_work():
    """synth_general checks epsilon, the method and the cost's sign first:
    on a product without accepting component it still reports the bad
    argument, not the missing component."""
    pm = Mdp(["x", "y"], ["a"], 0, {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}},
             acc_pairs=[({0}, {1})])  # the only loop passes through B
    r = np.full(pm.n_pairs, 1.0)
    c = np.full(pm.n_pairs, 1.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        synth_general(pm, r, c, 0.0)
    with pytest.raises(ValueError, match="method must be 'es' or 'ex'"):
        synth_general(pm, r, c, 0.1, "bogus")
    for bad in (0.0, -2.0):
        with pytest.raises(ModelError) as err:
            synth_general(pm, r, np.array([1.0, bad]), 0.1)
        assert str(err.value) == \
            f"cost must be strictly positive, got {bad} at state y, action a"
    with pytest.raises(TaskUnsatisfiable):
        synth_general(pm, r, c, 0.1)


def random_multichain_product(rng, distinct_gap=0.05):
    """Two closed strongly connected blocks plus transient feeders, with one
    Rabin pair whose G-set touches both blocks."""
    sizes = [int(rng.integers(2, 4)), int(rng.integers(2, 4))]
    n_tr = int(rng.integers(1, 3))
    blocks = []
    base = 0
    trans = {}
    for size in sizes:
        ids = list(range(base, base + size))
        for i, s in enumerate(ids):
            trans[(s, 0)] = {ids[(i + 1) % size]: 1.0}
            if rng.random() < 0.7 and size > 1:
                t = ids[int(rng.integers(size))]
                u = ids[int(rng.integers(size))]
                trans[(s, 1)] = ({t: 0.5, u: 0.5} if t != u else {t: 1.0})
        blocks.append(ids)
        base += size
    tr_ids = list(range(base, base + n_tr))
    all_block = [s for ids in blocks for s in ids]
    for s in tr_ids:
        tgt = int(rng.choice(all_block))
        other = int(rng.choice(all_block + tr_ids))
        trans[(s, 0)] = ({tgt: 0.6, other: 0.4} if other != tgt
                         else {tgt: 1.0})
    n = base + n_tr
    names = [f"s{i}" for i in range(n)]
    g = {blocks[0][0], blocks[1][0]}
    pm = Mdp(names, ["a", "b"], tr_ids[0], trans, acc_pairs=[(set(), g)])
    r, c = random_utilities(rng, pm)
    amecs = amecs_of(pm)
    if len(amecs) != 2:
        return None
    from effsynth.lp import solve_ratio_lfp
    vals = []
    for amec in amecs:
        sub, ids = restrict(pm, amec)
        vals.append(solve_ratio_lfp(sub, r[sub.parent_pair],
                                    c[sub.parent_pair]).value)
    if abs(vals[0] - vals[1]) < distinct_gap:
        return None
    return pm, r, c


def test_synth_general_multichain_random(rng):
    done = 0
    while done < 10:
        inst = random_multichain_product(rng)
        if inst is None:
            continue
        pm, r, c = inst
        eps = 0.01
        rep = synth_general(pm, r, c, eps)
        lp_sol = solve_avg_reward_lp(
            pm, build_reward_k(pm, amecs_of(pm), list(rep.amec_values),
                               r, c)[0])
        ca = analyze(pm, rep.policy)
        weighted = np.mean([efficiency(ca, pm, r, c, rep.policy, s)
                            for s in range(pm.n_states)])
        assert weighted >= lp_sol.gain - eps - 1e-7
        assert efficiency(ca, pm, r, c, rep.policy, pm.initial) >= \
            rep.value - eps - 1e-7
        amec_states = [ec_parts(pm, amec)[0] for amec in amecs_of(pm)]
        for comp in ca.recurrent_classes:
            assert any(set(comp) <= states for states in amec_states)
        assert rep.certificate.accepted
        done += 1


def test_gain_equivalence_on_multichain(rng):
    """The surrogate-reward gain decomposes into staying-probability-weighted
    component values."""
    done = 0
    while done < 8:
        inst = random_multichain_product(rng)
        if inst is None:
            continue
        pm, r, c = inst
        rep = synth_general(pm, r, c, 0.01)
        assert rep.avg_gain is not None
        rk, _ = build_reward_k(pm, amecs_of(pm), list(rep.amec_values),
                               r, c)
        from effsynth.lp import decode_avg_policy
        lp_sol = solve_avg_reward_lp(pm, rk)
        mu_k = decode_avg_policy(pm, lp_sol)
        ca = analyze(pm, mu_k)
        expect = 0.0
        for i, amec in enumerate(amecs_of(pm)):
            stay = 0.0
            for k, comp in enumerate(ca.recurrent_classes):
                if set(comp) <= ec_parts(pm, amec)[0]:
                    stay += float(ca.absorb[:, k].mean())
            expect += stay * rep.amec_values[i]
        assert lp_sol.gain == pytest.approx(expect, abs=1e-7)
        done += 1


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name under every effsynth module name bound
    to it (the modules import each other's functions by name)."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("effsynth") and \
                getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("method, analyses, chains",
                         [("es", 2, 3), ("ex", 2, 7)])
def test_case1_task2_synthesis_chain_work(monkeypatch, method, analyses,
                                          chains):
    """The decoder's analysis of the optimal policy's chain serves the
    no-perturbation test and the perturbation step, so that chain is
    induced and analyzed once; a single accepting component covering the
    product is solved on the product itself, whose certificate is the only
    one built.  The other chains are the irreducible policy's (induced once
    for the deviation and every probe's slope), one blend per exact-degree
    probe (4 here), none of which is analyzed, and the certificate's."""
    m, _, task2, reward, cost = gen_case1()
    pm = build_product(m, task2)
    r, c = lift_utilities(pm, reward, cost)
    analyzed = count_calls(monkeypatch, chain, "analyze")
    induced = count_calls(monkeypatch, model, "induce_chain")
    rep = synth_general(pm, r, c, 0.01, method)
    assert rep.certificate.accepted
    assert len(analyzed) == analyses
    assert len(induced) == chains


@pytest.mark.parametrize("method, factored", [("es", 1), ("ex", 5)])
def test_case1_task2_synthesis_factorizations(monkeypatch, method, factored):
    """Each system above DENSE_MAX is factored at most once per synthesis on
    grid 9: the optimal policy's transient block (263 states) serves both
    its absorption probabilities and its potentials, and the certificate's
    irreducible chain (274 states) is classified without a stationary
    solve, which it never reads; ex adds one factor per probe (4 here),
    which serves both the probe's J and its slope, and none to certify the
    degree."""
    import scipy.sparse.linalg
    splu = scipy.sparse.linalg.splu
    sizes = []

    def recorded(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    m, _, task2, reward, cost = gen_case1()
    pm = build_product(m, task2)
    r, c = lift_utilities(pm, reward, cost)
    assert synth_general(pm, r, c, 0.01, method).certificate.accepted
    assert sorted(sizes) == [263] + [274] * (factored - 1)


@pytest.mark.parametrize("method", ["es", "ex"])
def test_case1_task2_certificate_solves_no_stationary(monkeypatch, method):
    """The certificate of a grid-9 synthesis reads only the classes and the
    absorption of its irreducible chain, so no stationary system of that
    chain is solved: es solves the optimal policy's 11-state class alone,
    and ex adds its 4 probes, each on its own blend's chain."""
    m, _, task2, reward, cost = gen_case1()
    pm = build_product(m, task2)
    r, c = lift_utilities(pm, reward, cost)
    solved = count_calls(monkeypatch, chain, "_stationary")
    certified = count_calls(monkeypatch, chain, "certify")
    rep = synth_general(pm, r, c, 0.01, method)
    assert rep.certificate.accepted
    ((ca, *_),) = certified
    assert ca.recurrent_classes == (tuple(range(pm.n_states)),)
    assert all(mc is not ca.chain for (mc,) in solved)
    assert [mc.n_states for (mc,) in solved] == \
        [11] + [pm.n_states] * (4 if method == "ex" else 0)


def two_maec_instance():
    """One accepting component holding two MAECs: the G-loops at left
    (reward 1) and right (reward 2), joined through the B-state mid."""
    trans = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0},
             (1, 0): {0: 1.0}, (1, 1): {2: 1.0},
             (2, 0): {2: 1.0}, (2, 1): {1: 1.0}}
    pm = Mdp(["left", "mid", "right"], ["a", "b"], 0, trans,
             acc_pairs=[({1}, {0, 2})])
    r = UtilityFn({(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0,
                   (2, 0): 2.0, (2, 1): 0.0}, "reward").pair_values(pm)
    return pm, r, np.full(pm.n_pairs, 1.0)


def test_only_the_winning_maec_is_decoded(monkeypatch):
    """In a component with two MAECs, both ratio programs run but only the
    winner's policy is decoded; the MAEC stage's report is the one it
    gives with the winner alone, apart from the values it lists, and the
    synthesis settles in right."""
    pm, r, c = two_maec_instance()
    maecs = maec_decompose(pm)
    assert len(maecs) == 2 and len(amecs_of(pm)) == 1
    decoded = count_calls(monkeypatch, lp, "decode_ratio_policy")
    rep = synthesis._solve_maecs(pm, r, c, maecs, 0.01, "es", Tolerances())
    assert len(decoded) == 1
    assert rep.amec_values == pytest.approx((1.0, 2.0), abs=1e-9)
    assert rep.amec_chosen == 1
    alone = synthesis._solve_maecs(pm, r, c, maecs[1:], 0.01, "es",
                                   Tolerances())
    assert np.array_equal(rep.policy, alone.policy)
    assert (rep.value, rep.plan, rep.no_perturbation) == \
        (alone.value, alone.plan, alone.no_perturbation)
    full = synth_general(pm, r, c, 0.01)
    assert rule_of(pm, full.policy) == {0: {1: 1.0}, 1: {1: 1.0},
                                        2: {0: 1.0}}
    assert full.value == pytest.approx(2.0, abs=1e-9)
    assert full.certificate.accepted


def test_synth_general_decomposes_the_product_once(monkeypatch):
    """With a partial almost-sure region and two accepting components, one
    synth_general runs mec_decompose once for the MECs and once per Rabin
    pair inside its single maec_decompose: the region and every component
    gather their end components instead of decomposing again.  Only the
    returned report gets a certificate."""
    pm, r, c = trap_instance([(set(), {2, 4}), ({3}, {2, 5})])
    amecs = amecs_of(pm)
    assert len(amecs) == 2
    assert not almost_sure_region(pm, amecs).all()
    mecs = count_calls(monkeypatch, graph, "mec_decompose")
    maecs = count_calls(monkeypatch, graph, "maec_decompose")
    regions = count_calls(monkeypatch, graph, "almost_sure_region")
    certificates = count_calls(monkeypatch, chain, "certify")
    rep = synth_general(pm, r, c, 0.01)
    assert rep.certificate.accepted
    assert rep.value == pytest.approx(1.0, abs=1e-8)
    assert len(mecs) == 1 + len(pm.acc_pairs)
    assert len(maecs) == 1
    assert len(regions) == 1
    assert len(certificates) == 1


def test_certificate_reads_the_exact_verdict():
    """The certificate of a policy whose irreducible chain visits b through
    an edge of probability 1e-13 lists one class, without a witness, and is
    not accepted."""
    from effsynth.parsers import parse_dra, parse_mdp, parse_policy
    from test_cli import EDGE_1E13, FIN_B_INF_G
    model_text, policy_text = EDGE_1E13
    pm = model.build_product(parse_mdp(model_text), parse_dra(FIN_B_INF_G))
    cert = chain.certify(analyze(pm, parse_policy(policy_text, pm)),
                         pm.acc_pairs, pm.initial)
    assert cert.recurrent_classes == ((0, 1),)
    assert cert.witness_pairs == (None,)
    assert cert.absorption_defect == 0.0
    assert cert.accepted is False


def test_grid25_es_rung_forms_no_n_by_n_array():
    """synth_general es on the case-1 task-2 grid 25 (2450 states, 9308
    pairs) certifies the ladder's value, and its traced peak stays below
    2 KB per pair, which one 2450 x 2450 float array (48 MB) would exceed:
    the chains, their solves and the ratio program stay sparse.
    tracemalloc sees the numpy and Python allocations only; SuperLU's and
    HiGHS's own C allocations are not traced."""
    import scipy.optimize  # noqa: F401  (imported first: not in the peak)
    import scipy.sparse.linalg  # noqa: F401
    import tracemalloc
    pm, r, c = delivery_grid_product(25)
    assert (pm.n_states, pm.n_pairs) == (2450, 9308)
    tracemalloc.start()
    try:
        rep = synth_general(pm, r, c, 0.01, "es")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.value == pytest.approx(0.1171506882895, abs=1e-12)
    assert rep.certificate.accepted
    assert peak < 2048 * pm.n_pairs < pm.n_states ** 2 * 8
