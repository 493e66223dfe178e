"""Shared fixtures: random instance generators and brute-force oracles.

The oracles deliberately avoid the library's solver paths: end components are
found by enumerating every sub-MDP, optimal ratios by enumerating every
deterministic stationary policy (a valid oracle because a deterministic
stationary optimum always exists for this criterion), reachability values by
per-policy linear solves.
"""

import itertools

import numpy as np
import pytest

from effsynth.model import Mdp, ProductMdp, UtilityFn, induce_chain, \
    policy_domain, policy_from_rule
from effsynth.graph import (amec_filter, is_communicating, maec_decompose,
                            mec_decompose, strongly_connected_components)
from effsynth.chain import analyze, efficiency, average_utility


def example1_mdp():
    """The four-state two-action illustration instance (states named 1..4)."""
    trans = {
        (0, 0): {1: 1.0},   # 1 -a1-> 2
        (0, 1): {2: 1.0},   # 1 -a2-> 3
        (1, 0): {1: 1.0},   # 2 -a1-> 2
        (2, 0): {3: 1.0},   # 3 -a1-> 4
        (3, 0): {2: 1.0},   # 4 -a1-> 3
        (3, 1): {3: 1.0},   # 4 -a2-> 4
    }
    return Mdp(["1", "2", "3", "4"], ["a1", "a2"], 0, trans)


def example1_product():
    """Example-1 viewed as a product with the single pair (B={3}, G={4})."""
    m = example1_mdp()
    return ProductMdp(m.state_names, m.action_names, m.initial, m.trans,
                      [({2}, {3})])


def random_mdp(rng, n_states, n_actions, p_avail=0.75, max_branch=3):
    """Random MDP; every state keeps at least one action."""
    trans = {}
    for s in range(n_states):
        acts = [a for a in range(n_actions) if rng.random() < p_avail]
        if not acts:
            acts = [int(rng.integers(n_actions))]
        for a in acts:
            k = int(rng.integers(1, max_branch + 1))
            succs = rng.choice(n_states, size=min(k, n_states), replace=False)
            probs = rng.dirichlet(np.ones(len(succs)))
            trans[(s, a)] = {int(t): float(p) for t, p in zip(succs, probs)}
    names = [f"s{i}" for i in range(n_states)]
    return Mdp(names, [f"a{j}" for j in range(n_actions)],
               int(rng.integers(n_states)), trans)


def random_communicating_mdp(rng, n_states, n_actions, **kw):
    for _ in range(200):
        m = random_mdp(rng, n_states, n_actions, **kw)
        if is_communicating(m):
            return m
    raise RuntimeError("could not draw a communicating instance")


def random_product(rng, n_states, n_actions, n_pairs=1, **kw):
    m = random_mdp(rng, n_states, n_actions, **kw)
    pairs = []
    for _ in range(n_pairs):
        b = {int(s) for s in rng.choice(n_states,
                                        size=int(rng.integers(0, 2)),
                                        replace=False)}
        g = {int(s) for s in rng.choice(n_states,
                                        size=int(rng.integers(1, 3)),
                                        replace=False)}
        pairs.append((b, g))
    return ProductMdp(m.state_names, m.action_names, m.initial, m.trans, pairs)


def amecs_of(pm):
    """The AMECs of pm, from its own MEC and MAEC decompositions."""
    return amec_filter(mec_decompose(pm), maec_decompose(pm))


def ec_parts(m, ec):
    """An end component's pair mask over m read back as (states,
    {state: actions}), both as frozensets."""
    acts = {}
    for s, a in zip(m.pair_state[ec].tolist(), m.pair_action[ec].tolist()):
        acts.setdefault(s, set()).add(a)
    return frozenset(acts), {s: frozenset(a) for s, a in acts.items()}


def region_states(region):
    """A boolean state mask as the set of its states."""
    return set(np.flatnonzero(region).tolist())


def random_communicating_product(rng, n_states, n_actions, n_pairs=1, **kw):
    for _ in range(500):
        pm = random_product(rng, n_states, n_actions, n_pairs, **kw)
        if is_communicating(pm) and maec_decompose(pm):
            return pm
    raise RuntimeError("could not draw a communicating accepting instance")


def random_utility_tables(rng, m, reward_lo=-1.0, reward_hi=2.0,
                          cost_lo=0.25, cost_hi=2.0):
    """Random reward and cost tables over m's pairs."""
    r = {}
    c = {}
    for s, a in m.state_action_pairs():
        r[(s, a)] = float(rng.uniform(reward_lo, reward_hi))
        c[(s, a)] = float(rng.uniform(cost_lo, cost_hi))
    return UtilityFn(r, "reward"), UtilityFn(c, "cost")


def random_utilities(rng, m, **kw):
    """Random reward and cost value vectors over m's pairs (the same draws
    as random_utility_tables)."""
    r, c = random_utility_tables(rng, m, **kw)
    return r.pair_values(m), c.pair_values(m)


def random_policy(rng, m):
    return policy_from_rule(m, random_rule(rng, m))


def random_rule(rng, m):
    rule = {}
    for s in range(m.n_states):
        w = rng.dirichlet(np.ones(len(m.available[s])))
        rule[s] = {a: float(p) for a, p in zip(m.available[s], w)}
    return rule


def deterministic(m, assignment):
    """The policy taking action assignment[s] at each state s it lists."""
    return policy_from_rule(m, {s: {a: 1.0} for s, a in assignment.items()})


def rule_of(m, w):
    """Policy w as a {state: {action: weight}} rule over its domain, zero
    weights left out."""
    domain = np.flatnonzero(policy_domain(m, w)).tolist()
    ptr, acts, w = m.state_ptr.tolist(), m.pair_action.tolist(), w.tolist()
    return {s: {acts[j]: w[j] for j in range(ptr[s], ptr[s + 1])
                if w[j] != 0.0}
            for s in domain}


def utility_dict(m, u):
    """A utility vector over m's pairs as its {(state, action): value}
    table."""
    return dict(zip(m.state_action_pairs(), u.tolist()))


def random_unichain_policy(rng, m, tries=200):
    for _ in range(tries):
        p = random_policy(rng, m)
        if analyze(induce_chain(m, p)).is_unichain():
            return p
    raise RuntimeError("could not draw a unichain policy")


def deterministic_policies(m):
    """Every deterministic stationary policy, as assignment dicts."""
    choices = [m.available[s] for s in range(m.n_states)]
    for combo in itertools.product(*choices):
        yield deterministic(m, dict(enumerate(combo)))


def brute_force_best_ratio(m, r, c, start):
    """Max analytic efficiency over all deterministic stationary policies."""
    best = -np.inf
    for p in deterministic_policies(m):
        ca = analyze(induce_chain(m, p))
        best = max(best, efficiency(ca, m, r, c, p, start))
    return best


def brute_force_best_gain(m, u):
    """Per-state optimal average reward over deterministic policies."""
    best = np.full(m.n_states, -np.inf)
    for p in deterministic_policies(m):
        ca = analyze(induce_chain(m, p))
        for s in range(m.n_states):
            best[s] = max(best[s], average_utility(ca, m, u, p, s))
    return best


def enumerate_ecs(m):
    """Every end component, by enumerating all sub-MDPs (exponential)."""
    per_state = []
    for s in range(m.n_states):
        opts = [None]
        acts = m.available[s]
        for k in range(1, len(acts) + 1):
            opts.extend(itertools.combinations(acts, k))
        per_state.append(opts)
    ecs = []
    for combo in itertools.product(*per_state):
        chosen = {s: set(acts) for s, acts in enumerate(combo)
                  if acts is not None}
        if not chosen:
            continue
        state_set = set(chosen)
        closed = all(
            all(t in state_set for t, p in m.trans[(s, a)].items() if p > 0.0)
            for s, acts in chosen.items() for a in acts)
        if not closed:
            continue
        adj = {s: sorted({t for a in chosen[s]
                          for t, p in m.trans[(s, a)].items() if p > 0.0})
               for s in state_set}
        sccs = strongly_connected_components(state_set, adj)
        if len(sccs) == 1:
            ecs.append((frozenset(state_set),
                        {s: frozenset(a) for s, a in chosen.items()}))
    return ecs


def maximal_ecs(ecs):
    out = []
    for i, (s1, a1) in enumerate(ecs):
        dominated = False
        for j, (s2, a2) in enumerate(ecs):
            if i == j:
                continue
            if s1 <= s2 and all(a1[s] <= a2.get(s, frozenset()) for s in a1):
                if not (s2 <= s1 and all(a2[s] <= a1.get(s, frozenset())
                                         for s in a2)) or j < i:
                    dominated = True
                    break
        if not dominated:
            out.append((s1, a1))
    return out


def max_reach_probability(m, target):
    """Optimal reachability probabilities by deterministic-policy enumeration
    (exact: per-policy absorption solve), for small models only."""
    target = set(target)
    best = np.zeros(m.n_states)
    for p in deterministic_policies(m):
        chain = induce_chain(m, p)
        n = m.n_states
        # hitting probabilities: h = 1 on target, h = P h elsewhere, with
        # states that cannot reach the target pinned to zero
        reach = set(target)
        frontier = True
        while frontier:
            frontier = False
            for s in range(n):
                if s in reach:
                    continue
                if any(chain.P[s, t] > 0 for t in reach):
                    reach.add(s)
                    frontier = True
        rest = sorted(reach - target)
        h = np.zeros(n)
        for s in target:
            h[s] = 1.0
        if rest:
            a = np.eye(len(rest)) - chain.P[np.ix_(rest, rest)]
            b = np.array([sum(chain.P[s, t] * h[t]
                              for t in range(n) if t not in rest)
                          for s in rest])
            sol = np.linalg.solve(a, b)
            for i, s in enumerate(rest):
                h[s] = sol[i]
        best = np.maximum(best, h)
    return best


def delivery_grid(n):
    """Case-1 (model, task-2 automaton, reward, cost) on the n x n grid: the
    default grid for n = 9; beyond it, the destinations and the charging
    cell at the scaled corners and 1.0 per move past the default cost
    table."""
    from effsynth import casestudies
    params = None
    if n != 9:
        cost_table = dict(casestudies.COST_BY_DISTANCE)
        cost_table.update({d: 1.0
                           for d in range(max(cost_table) + 1, 2 * n)})
        params = casestudies.Case1Params(
            size=n, destinations={(n, 1): 2.0, (1, n): 1.0},
            charging=(n - 1, 1), cost_table=cost_table)
    m, _, task2, reward, cost = casestudies.gen_case1(params)
    return m, task2, reward, cost


def delivery_grid_product(n):
    """(pm, r, c): the task-2 product of delivery_grid(n) with its lifted
    reward and cost."""
    from effsynth.model import build_product, lift_utilities
    m, task2, reward, cost = delivery_grid(n)
    pm = build_product(m, task2)
    return (pm, *lift_utilities(pm, reward, cost))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
