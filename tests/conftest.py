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

from effsynth.model import Mdp, UtilityFn, blend, csr_arrays, induce_chain, \
    policy_domain, policy_from_entries
from effsynth.graph import (amec_filter, is_communicating, maec_decompose,
                            mec_decompose)
from effsynth.chain import (_deviation, _stationary, analyze, average_utility,
                            efficiency, limit_distribution, potential_vector,
                            ratio_deviation, utility_vector)


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
    return Mdp(m.state_names, m.action_names, m.initial, m.trans,
               acc_pairs=[({2}, {3})])


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


def chain_model(P, initial=0):
    """A row-stochastic matrix as (model, policy): one action per state whose
    successor entries are the row's positive entries, played with weight 1,
    so that the policy induces P on the model."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    src, dst = np.nonzero(P > 0.0)
    m = Mdp.from_arrays([f"s{i}" for i in range(n)], ["a"], initial,
                        *csr_arrays(n, src, np.zeros_like(src), dst,
                                    P[src, dst]))
    return m, np.ones(m.n_pairs)


def dense_p(chain):
    """A dense copy of a chain's matrix P, which the program keeps only in
    CSR form."""
    P = np.zeros((chain.n_states, chain.n_states))
    P[chain.row, chain.indices] = chain.data
    return P


def stationary_distribution(chain):
    """The stationary row vector of an irreducible chain, without the
    handle on its factor that chain._stationary also returns."""
    return _stationary(chain)[0]


def ratio_perturbation_identity_check(m: Mdp, mu, mu_prime, r, c,
                                      delta: float):
    """Both sides of the efficiency-difference identity for the mixture
    (1-delta) mu + delta mu'.

    lhs is the direct difference of efficiencies; rhs rebuilds it from the
    deviation vectors of reward and cost.  Requires mu to induce a unichain.
    """
    j_mu, d = ratio_deviation(analyze(m, mu), m, mu, mu_prime, r, c)
    mu_delta = blend(mu, mu_prime, delta)
    ca_d = analyze(m, mu_delta)
    lhs = efficiency(ca_d, m, r, c, mu_delta, m.initial) - j_mu
    pi_d = limit_distribution(ca_d)
    vc_d = utility_vector(m, c, mu_delta)
    rhs = delta / float(pi_d @ vc_d) * float(pi_d @ d)
    return lhs, rhs


def settled_probes(monkeypatch, state):
    """Make every probe of the exact degree search (synthesis._probe) find
    its blend settled at state: while a probe runs, the stationary factor
    returns that point mass next to the handle on the chain's real factor.
    Nothing outside the probes is touched."""
    from effsynth import chain, synthesis
    probe, stationary = synthesis._probe, chain._stationary

    def settled(*args):
        with monkeypatch.context() as inner:
            inner.setattr(chain, "_stationary", lambda mc: (
                np.eye(mc.n_states)[state], stationary(mc)[1]))
            return probe(*args)
    monkeypatch.setattr(synthesis, "_probe", settled)


def limit_matrix(ca):
    """P* (the Cesaro limit of the powers of P) as a dense n x n array:
    the sum over the classes k of absorb[:, k] times the class's
    stationary row.  No result of the program reads it, since each needs
    only rows of it (see chain._limit_row)."""
    n = ca.chain.n_states
    star = np.zeros((n, n))
    for k, comp in enumerate(ca.recurrent_classes):
        row = np.zeros(n)
        row[list(comp)] = ca.stationary[k]
        star += np.outer(ca.absorb[:, k], row)
    return star


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
    return Mdp(m.state_names, m.action_names, m.initial, m.trans,
               acc_pairs=pairs)


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


def rule_policy(m, rule):
    """The policy of a {state: {action: probability}} rule, read by
    policy_from_entries from its entries, state by state and each state's
    by action."""
    rows = [(s, sorted(d.items())) for s, d in rule.items()]
    return policy_from_entries(
        m, np.array([s for s, d in rows for _ in d], dtype=np.int64),
        np.array([a for _, d in rows for a, _ in d], dtype=np.int64),
        np.array([p for _, d in rows for _, p in d], dtype=float))


def random_policy(rng, m):
    return rule_policy(m, random_rule(rng, m))


def random_rule(rng, m):
    rule = {}
    for s in range(m.n_states):
        w = rng.dirichlet(np.ones(len(m.available[s])))
        rule[s] = {a: float(p) for a, p in zip(m.available[s], w)}
    return rule


def deterministic(m, assignment):
    """The policy taking action assignment[s] at each state s it lists."""
    return rule_policy(m, {s: {a: 1.0} for s, a in assignment.items()})


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
        if analyze(m, p).is_unichain():
            return p
    raise RuntimeError("could not draw a unichain policy")


def deviation_vector(m, mu, mu_prime, u, g=None):
    """Deviation of mu_prime from mu w.r.t. u, built on mu's potential g
    (by default solved for u alone): the step chain.ratio_deviation takes
    for reward and cost at once."""
    ca = analyze(m, mu)
    if g is None:
        g = potential_vector(ca, m, u, mu)
    return _deviation(m, ca, induce_chain(m, mu_prime), mu, mu_prime, u, g)


def accepts_lasso(dra, prefix, cycle):
    """Rabin acceptance by dra of the ultimately periodic word
    prefix.cycle^w."""
    q = dra.initial
    for sym in prefix:
        q = dra.step(q, sym)
    # run the cycle until the (state, position) pair repeats
    seen = {}
    trace = []
    pos = 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(trace)
        q = dra.step(q, cycle[pos])
        trace.append(q)
        pos = (pos + 1) % len(cycle)
    inf = set(trace[seen[(q, pos)]:])
    return any(b.isdisjoint(inf) and not g.isdisjoint(inf)
               for b, g in dra.pairs)


def deterministic_policies(m):
    """Every deterministic stationary policy, as assignment dicts."""
    choices = [m.available[s] for s in range(m.n_states)]
    for combo in itertools.product(*choices):
        yield deterministic(m, dict(enumerate(combo)))


def brute_force_best_ratio(m, r, c, start):
    """Max analytic efficiency over all deterministic stationary policies."""
    best = -np.inf
    for p in deterministic_policies(m):
        ca = analyze(m, p)
        best = max(best, efficiency(ca, m, r, c, p, start))
    return best


def brute_force_best_gain(m, u):
    """Per-state optimal average reward over deterministic policies."""
    best = np.full(m.n_states, -np.inf)
    for p in deterministic_policies(m):
        ca = analyze(m, p)
        for s in range(m.n_states):
            best[s] = max(best[s], average_utility(ca, m, u, p, s))
    return best


def reach_sets(adj):
    """Per node of the adjacency dict adj (node -> successors), the set of
    nodes it reaches, itself included, by a depth-first search from it."""
    out = {}
    for s in adj:
        seen = {s}
        stack = [s]
        while stack:
            for t in adj[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        out[s] = seen
    return out


def scc_reference(adj):
    """The strongly connected components of the adjacency dict adj, by
    their definition: s and t share one iff each reaches the other."""
    reach = reach_sets(adj)
    return {frozenset(t for t in reach[s] if s in reach[t]) for s in adj}


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
        if len(scc_reference(adj)) == 1:
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
        P = dense_p(induce_chain(m, p))
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
                if any(P[s, t] > 0 for t in reach):
                    reach.add(s)
                    frontier = True
        rest = sorted(reach - target)
        h = np.zeros(n)
        for s in target:
            h[s] = 1.0
        if rest:
            a = np.eye(len(rest)) - P[np.ix_(rest, rest)]
            b = np.array([sum(P[s, t] * h[t]
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
