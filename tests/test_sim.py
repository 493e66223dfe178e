import numpy as np
import pytest

from effsynth.model import Mdp, UtilityFn, uniform_policy
from effsynth.chain import analyze, efficiency, limit_distribution
from effsynth.sim import RolloutConfig, simulate
from effsynth.synthesis import synth_general

from conftest import (deterministic, random_communicating_product,
                      random_utilities)


def test_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        RolloutConfig(steps=0, rollouts=1, seed=1)
    with pytest.raises(ValueError):
        RolloutConfig(steps=1, rollouts=0, seed=1)


def test_deterministic_loop_exact_ratio():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    p = deterministic(m, {0: 0})
    r = UtilityFn({(0, 0): 2.0}, "reward").pair_values(m)
    c = UtilityFn({(0, 0): 4.0}, "cost").pair_values(m)
    stats = simulate(m, p, r, c, RolloutConfig(steps=1000, rollouts=3, seed=7))
    assert stats.mean_ratio == 0.5
    assert stats.stderr == 0.0
    assert stats.visit_freq == (1.0,)


def test_same_seed_is_bitwise_identical(rng):
    pm = random_communicating_product(rng, 4, 2)
    r, c = random_utilities(rng, pm)
    p = uniform_policy(pm)
    cfg = RolloutConfig(steps=5000, rollouts=4, seed=123)
    a = simulate(pm, p, r, c, cfg)
    b = simulate(pm, p, r, c, cfg)
    assert a.ratios == b.ratios
    assert a.mean_ratio == b.mean_ratio and a.stderr == b.stderr
    assert a.visit_freq == b.visit_freq and a.label_freq == b.label_freq


def test_chunked_draws_change_nothing(rng, monkeypatch):
    """Rollouts draw their streams CHUNK doubles at a time: chunks of 7
    give bitwise the statistics of one chunk per rollout."""
    from effsynth import sim
    pm = random_communicating_product(rng, 4, 2)
    r, c = random_utilities(rng, pm)
    p = uniform_policy(pm)
    cfg = RolloutConfig(steps=5000, rollouts=3, seed=11)
    whole = simulate(pm, p, r, c, cfg)
    monkeypatch.setattr(sim, "CHUNK", 7)
    assert simulate(pm, p, r, c, cfg) == whole


def test_rollout_memory_does_not_grow_with_steps():
    """A rollout of three chunks of steps peaks no higher than one of a
    chunk, give or take a byte a step: drawn at once, its doubles would
    take 32 bytes a step more."""
    import tracemalloc
    from effsynth import sim
    m = Mdp(["s", "t"], ["a"], 0, {(0, 0): {0: 0.5, 1: 0.5},
                                   (1, 0): {0: 1.0}})
    p = uniform_policy(m)
    ones = np.ones(m.n_pairs)
    peaks = []
    tracemalloc.start()
    try:
        for chunks in (1, 3):
            tracemalloc.reset_peak()
            simulate(m, p, ones, ones, RolloutConfig(
                steps=chunks * sim.CHUNK, rollouts=1, seed=0))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + 3 * sim.CHUNK


def test_different_seed_differs(rng):
    pm = random_communicating_product(rng, 4, 2)
    r, c = random_utilities(rng, pm)
    p = uniform_policy(pm)
    a = simulate(pm, p, r, c, RolloutConfig(steps=2000, rollouts=2, seed=1))
    b = simulate(pm, p, r, c, RolloutConfig(steps=2000, rollouts=2, seed=2))
    assert a.ratios != b.ratios


def test_visit_frequencies_sum_to_one(rng):
    pm = random_communicating_product(rng, 5, 2)
    r, c = random_utilities(rng, pm)
    p = uniform_policy(pm)
    stats = simulate(pm, p, r, c, RolloutConfig(steps=3000, rollouts=3, seed=5))
    assert sum(stats.visit_freq) == pytest.approx(1.0, abs=1e-9)


def test_simulated_ratio_approaches_analytic(rng):
    """Synthesized-policy rollouts agree with the analytic evaluator."""
    done = 0
    while done < 3:
        pm = random_communicating_product(rng, int(rng.integers(3, 6)), 2)
        r, c = random_utilities(rng, pm)
        rep = synth_general(pm, r, c, 0.05)
        ca = analyze(pm, rep.policy)
        analytic = efficiency(ca, pm, r, c, rep.policy, pm.initial)
        stats = simulate(pm, rep.policy, r, c,
                         RolloutConfig(steps=200000, rollouts=5, seed=done))
        band = max(3 * stats.stderr, 2e-3)
        assert abs(stats.mean_ratio - analytic) <= band
        done += 1


def test_label_frequency_matches_limit_distribution(rng):
    done = 0
    while done < 2:
        pm = random_communicating_product(rng, 4, 2)
        r, c = random_utilities(rng, pm)
        p = uniform_policy(pm)
        ca = analyze(pm, p)
        limit = limit_distribution(ca)
        stats = simulate(pm, p, r, c,
                         RolloutConfig(steps=200000, rollouts=4, seed=done))
        for prop in pm.atomic_props:
            expect = sum(limit[s] for s in range(pm.n_states)
                         if prop in pm.labels[s])
            assert stats.label_freq[prop] == pytest.approx(expect, abs=5e-3)
        done += 1


def pair_visits(pm, p, cfg):
    """(G-visits, B-visits) per Rabin pair, from simulate's visit counts."""
    counts = simulate(pm, p, np.full(pm.n_pairs, 1.0),
                      np.full(pm.n_pairs, 1.0), cfg).visit_counts
    return [(sum(counts[s] for s in np.flatnonzero(g)),
             sum(counts[s] for s in np.flatnonzero(b)))
            for b, g in pm.acc_pairs]


def test_acceptance_visits_grow_only_for_accepting_class():
    # two-state accepting loop vs an absorbing rejecting state
    trans = {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}, (2, 0): {2: 1.0}}
    pm = Mdp(["g0", "g1", "bad"], ["a"], 0, trans, acc_pairs=[({2}, {1})])
    p = deterministic(pm, {0: 0, 1: 0, 2: 0})
    short = pair_visits(pm, p, RolloutConfig(steps=1000, rollouts=2, seed=3))
    long = pair_visits(pm, p, RolloutConfig(steps=4000, rollouts=2, seed=3))
    assert short[0][1] == 0 and long[0][1] == 0
    assert long[0][0] >= 3 * short[0][0]


def test_acceptance_visits_count_bad_states():
    # a policy violating acceptance by construction: B recurs with the loop
    trans = {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}}
    pm = Mdp(["x", "y"], ["a"], 0, trans, acc_pairs=[({1}, {0})])
    p = deterministic(pm, {0: 0, 1: 0})
    visits = pair_visits(pm, p, RolloutConfig(steps=1000, rollouts=1, seed=0))
    assert visits[0][1] == 500  # B-state hit every other step
    longer = pair_visits(pm, p, RolloutConfig(steps=4000, rollouts=1, seed=0))
    assert longer[0][1] == 2000  # and the count grows without bound
