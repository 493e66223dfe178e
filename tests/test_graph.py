from collections import deque

import numpy as np
import pytest

from effsynth.model import (Mdp, induce_chain, rabin_witness, support_csr,
                            uniform_policy)
from effsynth.graph import (Unreachable, _successors, almost_sure_region,
                            amec_filter, attractor_policy, closed_pairs,
                            is_communicating, maec_decompose, mec_decompose,
                            reachable, restrict,
                            strongly_connected_components, within)
from effsynth.lp import decode_ratio_policy, solve_ratio_lfp

from conftest import (amecs_of, delivery_grid_product, dense_p, ec_parts,
                      enumerate_ecs, example1_mdp, example1_product,
                      max_reach_probability, maximal_ecs, random_mdp,
                      random_product, reach_sets, region_states, rule_of,
                      rule_policy, scc_reference)


def as_key(m, ec):
    """An end component as a hashable (states, sorted (state, actions))."""
    states, acts = ec_parts(m, ec)
    return states, tuple(sorted(acts.items()))


def csr_of(adj):
    """The CSR arrays (indptr, indices) of the adjacency dict adj over the
    nodes 0..len(adj)-1."""
    lens = [len(adj[s]) for s in range(len(adj))]
    indices = [t for s in range(len(adj)) for t in adj[s]]
    return (np.concatenate(([0], np.cumsum(lens))).astype(np.int64),
            np.array(indices, dtype=np.int64))


def scc_both_ways(monkeypatch, indptr, indices):
    """strongly_connected_components' labels with every graph sent to the
    array Tarjan, then with every graph sent to scipy's compiled kernel
    (chain.DENSE_MAX sets the cut)."""
    from effsynth import chain
    out = []
    for cut in (np.iinfo(np.int64).max, -1):
        with monkeypatch.context() as mp:
            mp.setattr(chain, "DENSE_MAX", cut)
            out.append(strongly_connected_components(indptr, indices))
    return out


def bfs_reach(indptr, indices, sources):
    """The boolean mask of the nodes reached from sources, these included,
    by a breadth-first search over the CSR arrays' adjacency lists."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    queue = deque(int(v) for v in sources)
    seen[list(queue)] = True
    while queue:
        v = queue.popleft()
        for w in indices[indptr[v]:indptr[v + 1]].tolist():
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return seen


def test_scc_matches_reachability_oracle(rng, monkeypatch):
    """Both kernels, the array Tarjan (at most DENSE_MAX nodes) and scipy's
    (above it; the cut forced to -1), agree with the mutual-reachability
    definition on every node, and components are labelled in the order of
    their lowest nodes; reachable from a random root set (or none) marks
    exactly the nodes some root reaches."""
    from effsynth import chain
    for trial in range(60):
        monkeypatch.setattr(chain, "DENSE_MAX", 250 if trial % 2 else -1)
        n = int(rng.integers(1, 9))
        adj = {s: sorted({int(t) for t in
                          rng.choice(n, size=int(rng.integers(0, n + 1)))})
               for s in range(n)}
        reach = reach_sets(adj)
        roots = sorted({int(r) for r in
                        rng.choice(n, size=int(rng.integers(0, n + 1)))})
        reached = set().union(*(reach[r] for r in roots))
        label = strongly_connected_components(*csr_of(adj))
        assert (label >= 0).all()
        got = {frozenset(np.flatnonzero(label == k).tolist())
               for k in range(label.max() + 1)}
        assert got == scc_reference(adj)
        lowest = [np.flatnonzero(label == k)[0]
                  for k in range(label.max() + 1)]
        assert lowest == sorted(lowest)
        seen = reachable(*csr_of(adj), roots)
        assert seen.dtype == bool
        assert set(np.flatnonzero(seen).tolist()) == reached


def test_compiled_scc_matches_tarjan_on_random_digraphs(rng, monkeypatch):
    """On random sparse digraphs of up to 600 nodes, both kernels give the
    same labels, array for array; and reachable from random roots
    (repeated, unsorted, or none at all) matches a breadth-first search."""
    for trial in range(60):
        n = int(rng.integers(1, 600))
        e = int(rng.integers(0, 3 * n))
        src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
        indptr, indices = support_csr(n, src, dst)[:2]
        tarjan, compiled = scc_both_ways(monkeypatch, indptr, indices)
        assert compiled.dtype == tarjan.dtype == np.int64
        assert np.array_equal(compiled, tarjan)
        roots = rng.integers(0, n, int(rng.integers(0, 5)))
        assert np.array_equal(reachable(indptr, indices, roots),
                              bfs_reach(indptr, indices, roots))


def test_scc_is_iterative_on_200k_node_path_and_ring(monkeypatch):
    """Far beyond the interpreter's recursion limit: a path of n nodes has
    n components, a ring of them one, in both kernels; and from its middle
    node a path reaches only its second half, a ring every node."""
    n = 200_000
    path = (np.minimum(np.arange(n + 1), n - 1), np.arange(1, n))
    for label in scc_both_ways(monkeypatch, *path):
        assert np.array_equal(label, np.arange(n))
    seen = reachable(*path, [n // 2])
    assert seen[n // 2:].all() and not seen[:n // 2].any()
    ring = (np.arange(n + 1), (np.arange(n) + 1) % n)
    for label in scc_both_ways(monkeypatch, *ring):
        assert not label.any()
    assert reachable(*ring, [n // 2]).all()


@pytest.mark.parametrize("size", [9, 17])
def test_compiled_scc_matches_tarjan_on_grid_chains(monkeypatch, size):
    """On the case-1 task-2 grid products (above DENSE_MAX), both kernels
    give the same labels: on the ratio-optimal policy's chain (one class
    and its transient states, as the decoder classifies it) and on the
    uniform policy's, where reachable from the initial state (as certify
    asks it) matches a breadth-first search, and on the product's
    pair-support graph (as is_communicating and mec_decompose's first round
    read it)."""
    pm, r, c = delivery_grid_product(size)
    assert pm.n_states > 250
    mu_opt, _ = decode_ratio_policy(pm, solve_ratio_lfp(pm, r, c))
    for w in (mu_opt, uniform_policy(pm)):
        mc = induce_chain(pm, w)
        tarjan, compiled = scc_both_ways(monkeypatch, mc.indptr, mc.indices)
        assert np.array_equal(compiled, tarjan)
        assert np.array_equal(
            reachable(mc.indptr, mc.indices, [pm.initial]),
            bfs_reach(mc.indptr, mc.indices, [pm.initial]))
    graph = _successors(pm, np.ones(pm.n_pairs, dtype=bool))
    tarjan, compiled = scc_both_ways(monkeypatch, *graph)
    assert np.array_equal(compiled, tarjan)


def test_mec_example1_exact():
    m = example1_mdp()
    assert [ec_parts(m, ec) for ec in mec_decompose(m)] == [
        (frozenset({1}), {1: {0}}),
        (frozenset({2, 3}), {2: {0}, 3: {0, 1}}),
    ]


def test_mec_whole_mdp_when_strongly_connected():
    m = Mdp(["a", "b", "c"], ["go"], 0,
            {(0, 0): {1: 1.0}, (1, 0): {2: 1.0}, (2, 0): {0: 1.0}})
    mecs = mec_decompose(m)
    assert len(mecs) == 1
    assert ec_parts(m, mecs[0]) == (frozenset({0, 1, 2}),
                                 {0: {0}, 1: {0}, 2: {0}})


def test_mec_matches_brute_force(rng):
    for n_states, n_actions, trials in ((5, 2, 6), (6, 2, 4), (8, 2, 2)):
        for _ in range(trials):
            m = random_mdp(rng, n_states, n_actions)
            expected = {(s, tuple(sorted((k, frozenset(v))
                                         for k, v in a.items())))
                        for s, a in maximal_ecs(enumerate_ecs(m))}
            got = {as_key(m, ec) for ec in mec_decompose(m)}
            assert got == expected


def test_mec_disjoint_and_closed(rng):
    for trial in range(15):
        m = random_mdp(rng, int(rng.integers(3, 9)), 3)
        mecs = mec_decompose(m)
        seen = set()
        for ec in mecs:
            states, acts = ec_parts(m, ec)
            assert not (states & seen)
            seen |= states
            adj = {s: sorted({t for a in sa
                              for t, p in m.trans[(s, a)].items() if p > 0.0})
                   for s, sa in acts.items()}
            assert all(set(succ) <= states for succ in adj.values())
            assert scc_reference(adj) == {states}


def test_maec_example1():
    pm = example1_product()
    assert [ec_parts(pm, ec) for ec in maec_decompose(pm)] == [
        (frozenset({3}), {3: {1}})]


def test_maec_empty_when_no_accepting_state():
    pm = example1_product()
    pm = Mdp(pm.state_names, pm.action_names, pm.initial, pm.trans,
             acc_pairs=[({2}, set())])
    assert maec_decompose(pm) == []


def test_plain_model_has_no_acceptance_pairs(rng):
    """A model built without Rabin pairs, and each sub-model cut out of it,
    carries acc_pairs == () and no components, so it has no MAEC."""
    for trial in range(8):
        m = random_mdp(rng, int(rng.integers(3, 8)), 2)
        assert m.acc_pairs == () and m.components is None
        assert maec_decompose(m) == []
        for ec in mec_decompose(m):
            sub, _ = restrict(m, ec)
            assert sub.acc_pairs == () and sub.components is None
            assert sub.parent is m
            assert maec_decompose(sub) == []


def test_maec_matches_brute_force(rng):
    for trial in range(12):
        pm = random_product(rng, int(rng.integers(3, 7)), 2, n_pairs=2)
        ecs = enumerate_ecs(pm)
        accepting = []
        for states, acts in ecs:
            if rabin_witness(states, pm.acc_pairs) is not None:
                accepting.append((states, acts))
        expected = {(s, tuple(sorted((k, frozenset(v)) for k, v in a.items())))
                    for s, a in maximal_ecs(accepting)}
        got = {as_key(pm, ec) for ec in maec_decompose(pm)}
        assert got == expected


def test_amec_example1():
    pm = example1_product()
    assert [ec_parts(pm, ec) for ec in amecs_of(pm)] == [
        (frozenset({2, 3}), {2: {0}, 3: {0, 1}})]


def test_amec_when_maec_is_whole_mec():
    pm = Mdp(["x", "y"], ["a"], 0,
             {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}},
             acc_pairs=[(set(), {1})])
    amecs = amecs_of(pm)
    assert len(amecs) == 1
    assert ec_parts(pm, amecs[0])[0] == frozenset({0, 1})


def test_amec_contains_some_maec(rng):
    for trial in range(15):
        pm = random_product(rng, int(rng.integers(3, 8)), 2, n_pairs=2)
        maecs = [ec_parts(pm, ma) for ma in maec_decompose(pm)]
        for amec in amecs_of(pm):
            states, acts = ec_parts(pm, amec)
            assert any(ma_states <= states and
                       all(a <= acts.get(s, frozenset())
                           for s, a in ma_acts.items())
                       for ma_states, ma_acts in maecs)


def test_region_includes_amec_states():
    pm = example1_product()
    region = region_states(almost_sure_region(pm, amecs_of(pm)))
    assert {2, 3} <= region
    assert 0 in region          # can choose the action into the AMEC
    assert 1 not in region      # stuck in its own non-accepting loop


def test_region_excludes_unconnected_sink():
    pm = Mdp(["s", "t"], ["a"], 0,
             {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}},
             acc_pairs=[(set(), {0})])
    assert region_states(almost_sure_region(pm, amecs_of(pm))) == {0}


def test_region_matches_reachability_oracle(rng):
    for trial in range(12):
        pm = random_product(rng, int(rng.integers(3, 7)), 2)
        amecs = amecs_of(pm)
        target = set()
        for amec in amecs:
            target |= ec_parts(pm, amec)[0]
        region = region_states(almost_sure_region(pm, amecs))
        if not target:
            assert region == set()
            continue
        best = max_reach_probability(pm, target)
        oracle = {s for s in range(pm.n_states) if best[s] >= 1.0 - 1e-9}
        assert region == oracle


def test_attractor_noop_when_target_is_everything():
    m = example1_mdp()
    p = uniform_policy(m)
    assert np.array_equal(attractor_policy(m, set(range(4)), p), p)


def test_attractor_on_line_graph():
    m = Mdp(["l", "m", "r"], ["left", "right"], 0,
            {(0, 1): {1: 1.0}, (1, 0): {0: 1.0}, (1, 1): {2: 1.0},
             (2, 0): {1: 1.0}, (2, 1): {2: 1.0}})
    p = rule_policy(m, {2: {1: 1.0}})
    full = rule_of(m, attractor_policy(m, {2}, p))
    assert full[0] == {1: 1.0}
    assert full[1] == {1: 1.0}


def test_attractor_prefers_the_earliest_layer():
    """s1 can step into the target directly (a1) or through s0 (a0), which
    leaks into the target with probability 0.01 only: a layered attractor
    puts s0 and s1 in the same first layer and gives s1 the direct step."""
    m = Mdp(["s0", "s1", "t"], ["a0", "a1"], 0,
            {(0, 0): {0: 0.99, 2: 0.01}, (1, 0): {0: 1.0}, (1, 1): {2: 1.0},
             (2, 0): {2: 1.0}})
    full = rule_of(m, attractor_policy(m, {2},
                                       rule_policy(m, {2: {0: 1.0}})))
    assert full[0] == {0: 1.0}
    assert full[1] == {1: 1.0}


def test_attractor_unreachable_on_example1():
    m = example1_mdp()
    p = rule_policy(m, {2: {0: 1.0}, 3: {0: 0.5, 1: 0.5}})
    with pytest.raises(Unreachable, match="1"):
        attractor_policy(m, {2, 3}, p)


def test_attractor_makes_outside_states_transient(rng):
    """With a closed target, every outside state is transient and has positive
    probability of hitting the target within |S| steps."""
    for trial in range(15):
        pm = random_product(rng, int(rng.integers(3, 8)), 2)
        mecs = mec_decompose(pm)
        target, acts0 = ec_parts(pm, mecs[0])
        inside = rule_policy(pm, {s: {a: 1.0 / len(acts) for a in acts}
                                       for s, acts in acts0.items()})
        try:
            p = attractor_policy(pm, set(target), inside)
        except Unreachable:
            continue
        P = dense_p(induce_chain(pm, p))
        hit = np.zeros(pm.n_states)
        hit[sorted(target)] = 1.0
        reached = hit.copy()
        for _ in range(pm.n_states):
            reached = np.maximum(reached, P @ reached)
        assert np.all(reached > 0.0)
        from effsynth.chain import analyze
        ca = analyze(pm, p)
        for s in set(range(pm.n_states)) - set(target):
            assert s in ca.transient


def test_restrict_roundtrip_indices():
    pm = example1_product()
    amec = amecs_of(pm)[0]
    sub, ids = restrict(pm, amec)
    assert ids.tolist() == [2, 3]
    assert sub.n_states == 2
    assert sub.trans[(0, 0)] == {1: 1.0}
    # the pair's B-state "3" sits inside this component, so it is kept
    ((b, g),) = sub.acc_pairs
    assert b.tolist() == [True, False] and g.tolist() == [False, True]
    assert is_communicating(sub)


def test_restrict_gathers_the_rabin_masks(rng):
    """On random products with several pairs, restrict's ids are the states
    owning a kept pair, ascending, and each sub-model mask is its parent's
    set cut to those states and re-keyed to their local numbers."""
    nonempty_b = 0
    for trial in range(20):
        pm = random_product(rng, int(rng.integers(3, 8)), 2, n_pairs=3)
        for ec in mec_decompose(pm):
            sub, ids = restrict(pm, ec)
            owners = sorted(set(pm.pair_state[ec].tolist()))
            assert ids.dtype.kind == "i" and ids.tolist() == owners
            local = {s: i for i, s in enumerate(owners)}
            for masks, parent in zip(sub.acc_pairs, pm.acc_pairs):
                for mask, whole in zip(masks, parent):
                    want = {local[s] for s in np.flatnonzero(whole).tolist()
                            if s in local}
                    assert mask.tolist() == [i in want
                                             for i in range(sub.n_states)]
                    assert not mask.flags.writeable
            nonempty_b += any(b.any() for b, _ in sub.acc_pairs)
    assert nonempty_b > 0


def test_restrict_reads_its_states_off_the_mask(rng):
    """Random pair masks: the sub-model's parent_pair is the kept pairs, its
    states are exactly those owning one, and a mask whose pairs step outside
    those states raises."""
    closed = leaky = 0
    for trial in range(40):
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        pairs = rng.random(m.n_pairs) < 0.6
        if not pairs.any():
            continue
        owners = set(m.pair_state[pairs].tolist())
        stays = all(t in owners
                    for s, a in zip(m.pair_state[pairs].tolist(),
                                    m.pair_action[pairs].tolist())
                    for t, p in m.trans[(s, a)].items() if p > 0.0)
        if not stays:
            with pytest.raises(ValueError, match="the sub-MDP is not closed"):
                restrict(m, pairs)
            leaky += 1
            continue
        sub, ids = restrict(m, pairs)
        assert np.array_equal(sub.parent_pair, np.flatnonzero(pairs))
        assert ids.tolist() == sorted(owners)
        assert sub.n_states == len(owners)
        assert sub.initial == 0
        closed += 1
    assert closed > 0 and leaky > 0


def masks(ecs):
    return [ec.tolist() for ec in ecs]


def check_amec_gathers(m, amecs, maecs):
    """Each AMEC's sub-model decomposes into the MAECs of m it contains,
    gathered through its parent_pair."""
    for amec in amecs:
        sub, _ = restrict(m, amec)
        pp = sub.parent_pair
        assert masks(maec_decompose(sub)) == \
            masks([ma[pp] for ma in maecs if within(ma, amec)])


def test_gathered_end_components_match_recomputed(rng):
    """The almost-sure region's sub-model and each AMEC's sub-model can take
    their end components from the product by one gather through parent_pair:
    the gathered masks are the ones decomposing the sub-model again finds,
    in the same order."""
    partial = several = 0
    for trial in range(600):
        pm = random_product(rng, int(rng.integers(3, 12)), 2,
                            n_pairs=int(rng.integers(1, 3)), max_branch=2)
        maecs = maec_decompose(pm)
        amecs = amec_filter(mec_decompose(pm), maecs)
        if not amecs:
            continue
        several += len(amecs) > 1
        check_amec_gathers(pm, amecs, maecs)
        region = almost_sure_region(pm, amecs)
        if region.all():
            continue
        partial += 1
        rm, _ = restrict(pm, closed_pairs(pm, region))
        pp = rm.parent_pair
        rm_maecs = [ma[pp] for ma in maecs]
        rm_amecs = [a[pp] for a in amecs]
        assert masks(maec_decompose(rm)) == masks(rm_maecs)
        assert masks(amec_filter(mec_decompose(rm), maec_decompose(rm))) == \
            masks(rm_amecs)
        check_amec_gathers(rm, rm_amecs, rm_maecs)
    assert partial >= 30 and several >= 15


def test_is_communicating():
    assert not is_communicating(example1_mdp())
    m = Mdp(["a", "b"], ["x"], 0, {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}})
    assert is_communicating(m)
