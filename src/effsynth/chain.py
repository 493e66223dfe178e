"""Exact analysis of finite Markov chains.

A policy's chain on a model is classified on its exact support graph (s ->
t iff a pair of s with positive weight has a positive-probability entry at
t), so no threshold on a product w * p can drop an edge.  Its bottom
strongly connected components are the recurrent classes, and accepted_wp1
is the one verdict that the acceptance condition holds with probability
one.  Stationary distributions and absorption probabilities come from LU
solves on the dense induced P; the limit matrix P* is assembled from them
only when it is read (the average utility, potentials and the limit
distribution read it; the efficiency does not).
On top of that sit the long-run average utility, the
reward-to-cost efficiency for general multichain chains and potential
vectors g = (I - P + P*)^{-1} v, returned as plain arrays.
ratio_deviation is the one perturbation step: a unichain policy's efficiency
J and its ratio deviation d_r - J d_c towards another policy, read by the
perturbation degrees and by the perturbation identity relating the
efficiencies of a policy and its mixture with another policy.  Policies are
weight vectors over the model's pairs (see model), so a mixture is the
blend of two vectors; utilities are value vectors over the same pairs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Mc, Mdp, blend, induce_chain, rabin_witness
from .graph import _successors, strongly_connected_components

LIMIT_TOL = 1e-9      # limit-matrix algebra tolerance
POTENTIAL_TOL = 1e-8  # residual tolerance for potential solves


class SingularSystem(Exception):
    """A linear solve failed beyond tolerance."""


class NotUnichain(Exception):
    """An operation required a single recurrent class."""


@dataclass(frozen=True)
class ChainAnalysis:
    """Recurrent structure of a chain, and its limit matrix on demand.

    support maps each state to its ascending successors on the support
    graph.  absorb[s, k] is the probability of ending up (and staying
    forever) in recurrent class k when starting from s; the column of a
    transient state in limit_matrix is identically zero.
    """
    chain: Mc
    support: dict
    recurrent_classes: tuple
    transient: frozenset
    stationary: tuple       # per-class stationary distribution over class states
    absorb: np.ndarray      # n_states x n_classes

    def is_unichain(self):
        return len(self.recurrent_classes) == 1

    @cached_property
    def limit_matrix(self):
        """P* (the Cesaro limit of the powers of P): the sum over the
        classes k of absorb[:, k] times the class's stationary row.  Built
        on first use; the efficiency needs only absorb and stationary."""
        n = self.chain.n_states
        star = np.zeros((n, n))
        for k, comp in enumerate(self.recurrent_classes):
            row = np.zeros(n)
            row[list(comp)] = self.stationary[k]
            star += np.outer(self.absorb[:, k], row)
        return star


def stationary_distribution(block) -> np.ndarray:
    """The stationary row vector of an irreducible stochastic block: one LU
    solve of (block^T - I) pi = 0 with its last equation replaced by
    sum(pi) = 1, checked and clipped at zero.  The system is built in one
    k x k array: block^T with 1 taken off its diagonal."""
    k = block.shape[0]
    a = block.T.copy()
    a[np.diag_indices(k)] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"stationary solve failed: {e}") from e
    if np.any(pi < -LIMIT_TOL) or abs(pi.sum() - 1.0) > 1e-7:
        raise SingularSystem("stationary distribution out of tolerance")
    return np.maximum(pi, 0.0)


def analyze(m: Mdp, w) -> ChainAnalysis:
    """Classify the states of the chain that policy w induces on m, on the
    exact support graph, and solve for its stationary and absorption
    structure; the limit matrix P* is assembled only when it is read."""
    chain = induce_chain(m, w)
    P = chain.P
    n = chain.n_states
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("chain is not row-stochastic")
    adj = _successors(m, w > 0.0)
    sccs = strongly_connected_components(range(n), adj)
    comp = {s: i for i, states in enumerate(sccs) for s in states}
    # an SCC is a recurrent class unless one of its edges leaves it
    classes = tuple(sorted(
        tuple(states) for i, states in enumerate(sccs)
        if all(comp[t] == i for s in states for t in adj[s])))
    klass = np.full(n, -1)  # each state's class, -1 when transient
    for k, states in enumerate(classes):
        klass[list(states)] = k
    rec = klass >= 0
    tr = np.flatnonzero(~rec)

    # classes are sorted, so a class of all n states is P itself, uncopied
    stationary = [stationary_distribution(
        P if len(states) == n else P[np.ix_(states, states)])
        for states in classes]

    absorb = np.zeros((n, len(classes)))
    absorb[rec, klass[rec]] = 1.0
    if tr.size:
        a = np.eye(tr.size) - P[np.ix_(tr, tr)]
        rhs = np.column_stack([P[np.ix_(tr, states)].sum(axis=1)
                               for states in classes])
        try:
            absorb[tr] = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"absorption solve failed: {e}") from e

    return ChainAnalysis(chain=chain, support=adj, recurrent_classes=classes,
                         transient=frozenset(tr.tolist()),
                         stationary=tuple(stationary),
                         absorb=absorb)


def accepted_wp1(ca: ChainAnalysis, acc_pairs, start) -> bool:
    """The Rabin condition acc_pairs holds with probability one from start.

    A finite chain is absorbed into its recurrent classes with probability
    one (Kemeny & Snell, Finite Markov Chains, 1960, ch. III), so this holds
    exactly when every class that start reaches on the support graph has a
    Rabin witness; no probability is read.  The states start reaches are
    the SCCs of one traversal from it, made only if some class (named by
    its first state) has no witness.
    """
    bad = {comp[0] for comp in ca.recurrent_classes
           if rabin_witness(comp, acc_pairs) is None}
    return not bad or not any(
        bad.intersection(scc)
        for scc in strongly_connected_components([start], ca.support))


def utility_vector(m: Mdp, u, p) -> np.ndarray:
    """v(s) = sum_a mu(s,a) u(s,a) for a utility u over m's pairs, summed
    in action order."""
    return np.bincount(m.pair_state, weights=p * u, minlength=m.n_states)


def average_utility(ca: ChainAnalysis, m: Mdp, u, p, start) -> float:
    """Long-run average utility from `start`: the start row of P* times v."""
    v = utility_vector(m, u, p)
    return float(ca.limit_matrix[start, :] @ v)


def efficiency(ca: ChainAnalysis, m: Mdp, r, c, p, start) -> float:
    """Reward-to-cost ratio from `start`.

    Each recurrent class contributes its own stationary ratio; the result is
    the absorption-probability mixture of class ratios.  Positivity of the
    cost keeps every denominator away from zero.
    """
    vr = utility_vector(m, r, p)
    vc = utility_vector(m, c, p)
    total = 0.0
    for k, comp in enumerate(ca.recurrent_classes):
        w = float(ca.absorb[start, k])
        if w == 0.0:
            continue
        pi = ca.stationary[k]
        idx = list(comp)
        total += w * float(pi @ vr[idx]) / float(pi @ vc[idx])
    return total


def potential_vector(ca: ChainAnalysis, m: Mdp, u, p) -> np.ndarray:
    """The potential g solving (I - P + P*) g = v, by direct dense
    factorization.

    The system matrix I - P + P* is always invertible; a residual above
    tolerance therefore signals degenerate numerics, not a modeling error.
    """
    v = utility_vector(m, u, p)
    a = np.eye(ca.chain.n_states) - ca.chain.P + ca.limit_matrix
    try:
        g = np.linalg.solve(a, v)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(f"potential solve failed: {e}") from e
    resid = float(np.max(np.abs(a @ g - v)))
    if resid > POTENTIAL_TOL:
        raise SingularSystem(f"potential residual {resid:g} above tolerance")
    return g


def _deviation(m, ca, chain_p, mu, mu_prime, u):
    """d = (v' - v) + (P' - P) g, with P and g from mu's analysis ca."""
    g = potential_vector(ca, m, u, mu)
    v = utility_vector(m, u, mu)
    v_p = utility_vector(m, u, mu_prime)
    return (v_p - v) + (chain_p.P - ca.chain.P) @ g


def ratio_deviation(m: Mdp, mu, mu_prime, r, c):
    """The perturbation step towards mu_prime from a unichain policy mu.

    Returns (ca, j, d): mu's chain analysis, mu's efficiency j from the
    initial state, and the ratio deviation d = d_r - j d_c.  Each policy's
    chain is induced once and mu's is analyzed once.  Raises NotUnichain
    unless mu induces a single recurrent class.
    """
    ca = analyze(m, mu)
    if not ca.is_unichain():
        raise NotUnichain(
            f"{len(ca.recurrent_classes)} recurrent classes under mu")
    chain_p = induce_chain(m, mu_prime)
    j = efficiency(ca, m, r, c, mu, m.initial)
    d_r = _deviation(m, ca, chain_p, mu, mu_prime, r)
    d_c = _deviation(m, ca, chain_p, mu, mu_prime, c)
    return ca, j, d_r - j * d_c


def limit_distribution(ca: ChainAnalysis) -> np.ndarray:
    """pi0 P*: the limit distribution seen from the chain's initial state."""
    return ca.chain.pi0 @ ca.limit_matrix


def ratio_perturbation_identity_check(m: Mdp, mu, mu_prime, r, c,
                                      delta: float):
    """Both sides of the efficiency-difference identity for the mixture
    (1-delta) mu + delta mu'.

    lhs is the direct difference of efficiencies; rhs rebuilds it from the
    deviation vectors of reward and cost.  Requires mu to induce a unichain.
    """
    _, j_mu, d = ratio_deviation(m, mu, mu_prime, r, c)
    mu_delta = blend(mu, mu_prime, delta)
    ca_d = analyze(m, mu_delta)
    lhs = efficiency(ca_d, m, r, c, mu_delta, m.initial) - j_mu
    pi_d = limit_distribution(ca_d)
    vc_d = utility_vector(m, c, mu_delta)
    rhs = delta / float(pi_d @ vc_d) * float(pi_d @ d)
    return lhs, rhs
