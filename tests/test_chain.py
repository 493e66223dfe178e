import math

import numpy as np
import pytest

from effsynth.model import Mc, Mdp, UtilityFn, blend, induce_chain
from effsynth.chain import (NotUnichain, analyze, average_utility,
                            deviation_vector, efficiency, limit_distribution,
                            potential_vector, ratio_deviation,
                            ratio_perturbation_identity_check, utility_vector)

from conftest import (delivery_grid_product, deterministic, random_mdp,
                      random_policy, random_unichain_policy, random_utilities)


def chain_of(P, initial=0):
    P = np.asarray(P, dtype=float)
    pi0 = np.zeros(P.shape[0])
    pi0[initial] = 1.0
    return Mc(P=P, pi0=pi0)


def random_chain(rng, n_states=None):
    n = n_states or int(rng.integers(2, 9))
    m = random_mdp(rng, n, 2)
    return induce_chain(m, random_policy(rng, m))


def test_identity_chain():
    ca = analyze(chain_of(np.eye(3)))
    assert len(ca.recurrent_classes) == 3
    assert ca.transient == frozenset()
    assert np.array_equal(ca.limit_matrix, np.eye(3))


def test_two_state_swap():
    ca = analyze(chain_of([[0, 1], [1, 0]]))
    assert ca.recurrent_classes == ((0, 1),)
    assert np.allclose(ca.limit_matrix, 0.5)


def cesaro_average(P, n):
    acc = np.zeros_like(P)
    power = np.eye(P.shape[0])
    for k in range(n):
        acc += power
        power = power @ P
    return acc / n


def test_limit_matrix_matches_power_averaging(rng):
    """Cesaro averages of the powers converge to the assembled limit matrix.

    Convergence is O(absorption time / n), so the draws are dense rows (fast
    mixing) plus one structured multichain with quick absorption.
    """
    for trial in range(4):
        P = rng.dirichlet(np.ones(6), size=6)
        ca = analyze(chain_of(P))
        assert np.max(np.abs(cesaro_average(P, 100000) - ca.limit_matrix)) \
            <= 1e-4
    P = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.4, 0.6, 0.0],
                  [0.0, 0.0, 0.7, 0.3, 0.0],
                  [0.3, 0.2, 0.3, 0.1, 0.1]])
    ca = analyze(chain_of(P))
    assert len(ca.recurrent_classes) == 2 and ca.transient == {4}
    assert np.max(np.abs(cesaro_average(P, 100000) - ca.limit_matrix)) <= 1e-4


def test_transient_column_is_zero(rng):
    for trial in range(10):
        chain = random_chain(rng)
        ca = analyze(chain)
        for s in ca.transient:
            assert np.all(ca.limit_matrix[:, s] == 0.0)
        rec = [s for comp in ca.recurrent_classes for s in comp]
        for s in rec:
            assert ca.limit_matrix[s, s] > 0.0


def test_limit_matrix_algebra(rng):
    for trial in range(25):
        chain = random_chain(rng)
        ca = analyze(chain)
        P, star = chain.P, ca.limit_matrix
        for prod in (P @ star, star @ P, star @ star):
            assert np.max(np.abs(prod - star)) <= 1e-9
        assert np.max(np.abs(star.sum(axis=1) - 1.0)) <= 1e-9


def test_average_utility_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 3.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(induce_chain(m, p))
    assert average_utility(ca, m, u, p, 0) == pytest.approx(3.0)


def test_average_utility_two_cycle():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 1.0, (1, 0): 3.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0, 1: 0})
    ca = analyze(induce_chain(m, p))
    assert average_utility(ca, m, u, p, 0) == pytest.approx(2.0)


def test_average_utility_matches_monte_carlo(rng):
    """Long simulated averages agree with the analytic value within 3 sigma."""
    m = random_mdp(rng, 4, 2)
    p = random_unichain_policy(rng, m)
    u, _ = random_utilities(rng, m)
    chain = induce_chain(m, p)
    ca = analyze(chain)
    analytic = average_utility(ca, m, u, p, m.initial)
    n = 200000
    cum = np.cumsum(chain.P, axis=1)
    draws = rng.random(n)
    s = m.initial
    total = 0.0
    v = utility_vector(m, u, p)
    samples = []
    for t in range(n):
        total += v[s]
        samples.append(v[s])
        s = int(np.searchsorted(cum[s], draws[t]))
        s = min(s, m.n_states - 1)
    est = total / n
    # batch-mean standard error to absorb autocorrelation
    batches = np.array(samples).reshape(100, -1).mean(axis=1)
    sigma = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(est - analytic) <= max(3 * sigma, 5e-3)


def test_efficiency_reduces_to_mean_payoff_with_unit_cost(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        p = random_policy(rng, m)
        u, _ = random_utilities(rng, m)
        ones = np.full(m.n_pairs, 1.0)
        ca = analyze(induce_chain(m, p))
        assert efficiency(ca, m, u, ones, p, m.initial) == pytest.approx(
            average_utility(ca, m, u, p, m.initial), abs=1e-12)


def test_efficiency_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    r = UtilityFn({(0, 0): 2.0}, "reward").pair_values(m)
    c = UtilityFn({(0, 0): 4.0}, "cost").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(induce_chain(m, p))
    assert efficiency(ca, m, r, c, p, 0) == pytest.approx(0.5)


def test_efficiency_mixes_class_ratios_by_absorption():
    """Start splits 1/4 vs 3/4 into two absorbing loops with ratios 1 and 3."""
    m = Mdp(["t", "u", "v"], ["a"], 0,
            {(0, 0): {1: 0.25, 2: 0.75},
             (1, 0): {1: 1.0},
             (2, 0): {2: 1.0}})
    r = UtilityFn({(0, 0): 0.0, (1, 0): 1.0, (2, 0): 6.0},
                  "reward").pair_values(m)
    c = UtilityFn({(0, 0): 1.0, (1, 0): 1.0, (2, 0): 2.0},
                  "cost").pair_values(m)
    p = deterministic(m, {0: 0, 1: 0, 2: 0})
    ca = analyze(induce_chain(m, p))
    assert efficiency(ca, m, r, c, p, 0) == pytest.approx(
        0.25 * 1.0 + 0.75 * 3.0)


def test_potential_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 5.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(induce_chain(m, p))
    g = potential_vector(ca, m, u, p)
    assert g[0] == pytest.approx(5.0)


def test_potential_zero_utility(rng):
    m = random_mdp(rng, 5, 2)
    p = random_policy(rng, m)
    u = np.full(m.n_pairs, 0.0)
    ca = analyze(induce_chain(m, p))
    assert np.max(np.abs(potential_vector(ca, m, u, p))) <= 1e-12


def test_potential_contracts_to_average(rng):
    """pi' g = pi' v = the long-run average on unichains."""
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        p = random_unichain_policy(rng, m)
        u, _ = random_utilities(rng, m)
        ca = analyze(induce_chain(m, p))
        pi = limit_distribution(ca)
        g = potential_vector(ca, m, u, p)
        v = utility_vector(m, u, p)
        w = average_utility(ca, m, u, p, m.initial)
        assert float(pi @ g) == pytest.approx(w, abs=1e-8)
        assert float(pi @ v) == pytest.approx(w, abs=1e-8)


def test_potential_residual(rng):
    for trial in range(20):
        chain = random_chain(rng)
        n = chain.n_states
        ca = analyze(chain)
        v = rng.normal(size=n)
        a = np.eye(n) - chain.P + ca.limit_matrix
        g = np.linalg.solve(a, v)
        assert np.max(np.abs(a @ g - v)) <= 1e-8


def test_deviation_zero_for_equal_policies(rng):
    m = random_mdp(rng, 4, 2)
    p = random_policy(rng, m)
    u, _ = random_utilities(rng, m)
    assert np.max(np.abs(deviation_vector(m, p, p, u))) == 0.0


def test_deviation_zero_for_constant_cost(rng):
    """With unit cost the utility vectors agree and the potential is constant
    on the recurrent structure, so the deviation vanishes."""
    m = random_mdp(rng, 5, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    ones = np.full(m.n_pairs, 1.0)
    d = deviation_vector(m, mu, mu_p, ones)
    assert np.max(np.abs(d)) <= 1e-9


def test_deviation_reproduces_average_difference(rng):
    """The classical first-order identity, evaluated at delta in {0.1, 0.5}."""
    done = 0
    while done < 10:
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        u, _ = random_utilities(rng, m)
        d = deviation_vector(m, mu, mu_p, u)
        ca = analyze(induce_chain(m, mu))
        w_mu = average_utility(ca, m, u, mu, m.initial)
        for delta in (0.1, 0.5):
            mu_d = blend(mu, mu_p, delta)
            ca_d = analyze(induce_chain(m, mu_d))
            w_d = average_utility(ca_d, m, u, mu_d, m.initial)
            pi_d = limit_distribution(ca_d)
            assert w_d - w_mu == pytest.approx(delta * float(pi_d @ d),
                                               abs=1e-8)
        done += 1


def test_identity_check_zero_delta(rng):
    m = random_mdp(rng, 4, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    r, c = random_utilities(rng, m)
    lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, r, c, 0.0)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_identity_check_unit_cost_degenerates_to_classical(rng):
    m = random_mdp(rng, 5, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    u, _ = random_utilities(rng, m)
    ones = np.full(m.n_pairs, 1.0)
    delta = 0.3
    lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, u, ones, delta)
    d = deviation_vector(m, mu, mu_p, u)
    mu_d = blend(mu, mu_p, delta)
    pi_d = limit_distribution(analyze(induce_chain(m, mu_d)))
    classical = delta * float(pi_d @ d)
    assert rhs == pytest.approx(classical, abs=1e-10)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_identity_check_random_instances(rng):
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 8)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        r, c = random_utilities(rng, m)
        lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, r, c, 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-8)
        done += 1


def test_identity_check_rejects_multichain():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    p = deterministic(m, {0: 0, 1: 0})
    r = np.full(m.n_pairs, 1.0)
    c = np.full(m.n_pairs, 1.0)
    with pytest.raises(NotUnichain):
        ratio_perturbation_identity_check(m, p, p, r, c, 0.1)


def test_ratio_deviation_matches_deviation_vectors(rng):
    """One analysis of mu gives bit for bit what the two deviation vectors
    and mu's efficiency give separately."""
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 8)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        r, c = random_utilities(rng, m)
        ca, j, d = ratio_deviation(m, mu, mu_p, r, c)
        assert np.array_equal(ca.limit_matrix,
                              analyze(induce_chain(m, mu)).limit_matrix)
        assert j == efficiency(ca, m, r, c, mu, m.initial)
        assert np.array_equal(d, deviation_vector(m, mu, mu_p, r)
                              - j * deviation_vector(m, mu, mu_p, c))
        done += 1


def test_ratio_deviation_rejects_multichain():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    p = deterministic(m, {0: 0, 1: 0})
    r = np.full(m.n_pairs, 1.0)
    c = np.full(m.n_pairs, 1.0)
    with pytest.raises(NotUnichain):
        ratio_deviation(m, p, p, r, c)


def test_mixture_preserves_unichain(rng):
    """If mu induces a unichain, every positive mixture with any policy does."""
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        for delta in (0.01, 0.5, 1.0):
            ca = analyze(induce_chain(m, blend(mu, mu_p, delta)))
            assert ca.is_unichain()
        done += 1


def test_analyze_peak_memory_on_grid13_es_chain():
    """analyze on the chain of the case-1 task-2 grid-13 es policy (one
    recurrent class of all 626 states) peaks below 1.5 n x n float arrays:
    a class of every state is solved from P itself, not a copy, and the
    stationary system is built in one n x n array, with no identity matrix
    and no separate difference."""
    import tracemalloc
    from effsynth.synthesis import synth_general
    pm, r, c = delivery_grid_product(13)
    mc = induce_chain(pm, synth_general(pm, r, c, 0.01, "es").policy)
    n = mc.n_states
    tracemalloc.start()
    try:
        ca = analyze(mc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(comp) for comp in ca.recurrent_classes] == [n] == [626]
    assert peak < 1.5 * n * n * 8
