"""Exact analysis of finite Markov chains.

A policy's chain on a model is kept in CSR form (model.Mc), whose entries
are exactly its support graph (s -> t iff a pair of s with positive weight
has a positive-probability entry at t), so no threshold on a product w * p
can drop an edge.  Tarjan's algorithm (graph) labels the strongly connected
components of that graph on the CSR arrays; the bottom ones are the
recurrent classes, and certify builds the one Certificate, whose verdict
is that the acceptance condition holds with probability one.  No n x n
array is formed: stationary distributions, absorption probabilities and
potentials come from one solve helper, dense LU on a block of at most
DENSE_MAX states and SuperLU (scipy.sparse.linalg.splu) above that, on
systems built from the CSR arrays.  The limit matrix P* is assembled only
when limit_matrix is read; the average utility and the limit distribution
take its rows from the absorption probabilities and the per-class
stationary vectors.  On top of that sit the long-run average utility, the reward-to-cost efficiency for
general multichain chains and potential vectors g = (I - P + P*)^{-1} v,
solved class by class without P*, all returned as plain arrays.
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

from .model import PROB_TOL, Mc, Mdp, ModelError, _ranges, blend, \
    induce_chain, rabin_witness
from .graph import strongly_connected_components

LIMIT_TOL = 1e-9      # limit-matrix algebra tolerance
POTENTIAL_TOL = 1e-8  # residual tolerance for potential solves
DENSE_MAX = 250       # largest system solved by dense LU; SuperLU above it


class SingularSystem(Exception):
    """A linear solve failed beyond tolerance."""


class NotUnichain(Exception):
    """An operation required a single recurrent class."""


@dataclass(frozen=True)
class ChainAnalysis:
    """Recurrent structure of a chain, and its limit matrix on demand.

    absorb[s, k] is the probability of ending up (and staying forever) in
    recurrent class k when starting from s; the column of a transient state
    in limit_matrix is identically zero.
    """
    chain: Mc
    recurrent_classes: tuple
    transient: frozenset
    stationary: tuple       # per-class stationary distribution over class states
    absorb: np.ndarray      # n_states x n_classes

    def is_unichain(self):
        return len(self.recurrent_classes) == 1

    @cached_property
    def limit_matrix(self):
        """P* (the Cesaro limit of the powers of P) as a dense n x n array:
        the sum over the classes k of absorb[:, k] times the class's
        stationary row.  Built on first use; no result of the program reads
        it, since each needs only rows of it (see _limit_row)."""
        n = self.chain.n_states
        star = np.zeros((n, n))
        for k, comp in enumerate(self.recurrent_classes):
            row = np.zeros(n)
            row[list(comp)] = self.stationary[k]
            star += np.outer(self.absorb[:, k], row)
        return star


def _entries(*runs):
    """The (rows, cols, vals) runs of a matrix's entries joined into one
    such triplet, in run order."""
    return tuple(np.concatenate(t) for t in zip(*runs))


def _solve(k, system, b, what, transpose=False, tol=None):
    """x with M x = b, or M^T x = b when transpose, for M the k x k matrix
    whose entries are the (rows, cols, vals) triplet system, duplicates
    added in their order.  At most DENSE_MAX states are solved by dense LU;
    above that by SuperLU (scipy.sparse.linalg, imported only then), which
    factors M^T: M grouped into CSR arrays by a stable sort on the rows, the
    same three arrays read as CSC.  With tol, the residual max |M x - b|
    must not exceed it."""
    rows, cols, vals = system
    if k <= DENSE_MAX:
        a = np.bincount(rows * k + cols, weights=vals,
                        minlength=k * k).reshape(k, k)
        try:
            x = np.linalg.solve(a.T if transpose else a, b)
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"{what} solve failed: {e}") from e
    else:
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                            minlength=k))))
        try:
            lu = splu(csc_array((vals[order], cols[order], indptr),
                                shape=(k, k)))
        except RuntimeError as e:
            raise SingularSystem(f"{what} solve failed: {e}") from e
        x = lu.solve(b, trans="N" if transpose else "T")
    if tol is not None:
        resid = float(np.max(np.abs(np.bincount(
            rows, weights=vals * x[cols], minlength=k) - b)))
        if resid > tol:
            raise SingularSystem(f"{what} residual {resid:g} above tolerance")
    return x


def _bordered(blk: Mc, sign):
    """The entries of sign (P - I), P the matrix of blk, with its last
    column replaced by ones: P's, then the diagonal, then the ones."""
    k = blk.n_states
    keep = blk.indices != k - 1
    diag = np.arange(k - 1)
    return _entries((blk.row[keep], blk.indices[keep], sign * blk.data[keep]),
                    (diag, diag, np.full(k - 1, -sign)),
                    (np.arange(k), np.full(k, k - 1), np.ones(k)))


def _class_block(chain: Mc, states) -> Mc:
    """The recurrent class states (ascending, so no row leaves it) as a
    chain of its own, renumbered in that order; a class of every state is
    the chain itself."""
    if len(states) == chain.n_states:
        return chain
    idx = np.asarray(states)
    lens = np.diff(chain.indptr)[idx]
    e = _ranges(chain.indptr[idx], lens)
    return Mc(indptr=np.concatenate(([0], np.cumsum(lens))),
              indices=np.searchsorted(idx, chain.indices[e]),
              data=chain.data[e], pi0=None)


def _class_index(n, classes):
    """Each state's class in classes, -1 for a transient state."""
    klass = np.full(n, -1)
    for k, states in enumerate(classes):
        klass[list(states)] = k
    return klass


def _transient_system(chain: Mc, klass):
    """The entries of I - P_TT on the transient states T (klass -1), the
    diagonal first, and those of P that leave T: their row in T, column and
    value."""
    tr = np.flatnonzero(klass < 0)
    lens = np.diff(chain.indptr)[tr]
    e = _ranges(chain.indptr[tr], lens)
    rows = np.repeat(np.arange(tr.size), lens)
    cols, vals = chain.indices[e], chain.data[e]
    inside = klass[cols] < 0
    diag = np.arange(tr.size)
    system = _entries((diag, diag, np.ones(tr.size)),
                      (rows[inside], np.searchsorted(tr, cols[inside]),
                       -vals[inside]))
    return system, rows[~inside], cols[~inside], vals[~inside]


def stationary_distribution(chain: Mc) -> np.ndarray:
    """The stationary row vector of an irreducible chain: one LU solve of
    (P^T - I) pi = 0 with its last equation replaced by sum(pi) = 1, checked
    and clipped at zero.  The solve reads the system through its transpose,
    P - I with its last column replaced by ones."""
    k = chain.n_states
    b = np.zeros(k)
    b[-1] = 1.0
    pi = _solve(k, _bordered(chain, 1.0), b, "stationary", transpose=True)
    if np.any(pi < -LIMIT_TOL) or abs(pi.sum() - 1.0) > 1e-7:
        raise SingularSystem("stationary distribution out of tolerance")
    return np.maximum(pi, 0.0)


def analyze(m: Mdp, w) -> ChainAnalysis:
    """Classify the states of the chain that policy w induces on m, on the
    exact support graph, and solve for its stationary and absorption
    structure; the limit matrix P* is assembled only when it is read."""
    chain = induce_chain(m, w)
    n = chain.n_states
    # validated model and policy rows keep each chain row sum within
    # (1 + PROB_TOL)^2 - 1 of 1, up to rounding
    off = float(np.max(np.abs(chain.matvec(np.ones(n)) - 1.0)))
    if off > (1.0 + PROB_TOL) ** 2 - 1.0 + 1e-12:
        raise ModelError(f"a chain row sum is off 1 by {off:.3g}")
    comp = strongly_connected_components(chain.indptr, chain.indices)
    # a component is a recurrent class unless one of its edges leaves it
    leaves = np.zeros(n, dtype=bool)
    leaves[comp[chain.row[comp[chain.row] != comp[chain.indices]]]] = True
    klass = np.where(leaves[comp], -1, np.cumsum(~leaves)[comp] - 1)
    rec = klass >= 0
    tr = np.flatnonzero(~rec)
    order = np.argsort(klass, kind="stable")[tr.size:]
    classes = tuple(tuple(states.tolist()) for states in np.split(
        order, np.flatnonzero(np.diff(klass[order])) + 1))

    stationary = [stationary_distribution(_class_block(chain, states))
                  for states in classes]

    absorb = np.zeros((n, len(classes)))
    absorb[rec, klass[rec]] = 1.0
    if tr.size:
        system, rows, cols, vals = _transient_system(chain, klass)
        rhs = np.bincount(rows * len(classes) + klass[cols], weights=vals,
                          minlength=tr.size * len(classes))
        absorb[tr] = _solve(tr.size, system,
                            rhs.reshape(tr.size, len(classes)), "absorption")

    return ChainAnalysis(chain=chain, recurrent_classes=classes,
                         transient=frozenset(tr.tolist()),
                         stationary=tuple(stationary),
                         absorb=absorb)


@dataclass(frozen=True)
class Certificate:
    """Witness that a chain satisfies the acceptance condition.

    Every recurrent class is listed with the Rabin pair it satisfies (None
    if it meets none); accepted is the exact verdict that every class the
    start state reaches has one.  The absorption defect, 1 minus the
    least total probability, over states, of reaching the recurrent
    classes, is reported as a number and decides nothing.
    """
    recurrent_classes: tuple
    witness_pairs: tuple
    absorption_defect: float
    accepted: bool


def certify(ca: ChainAnalysis, acc_pairs, start) -> Certificate:
    """The certificate that the Rabin condition acc_pairs holds with
    probability one from start, each class's witness computed once.

    A finite chain is absorbed into its recurrent classes with probability
    one (Kemeny & Snell, Finite Markov Chains, 1960, ch. III), so this holds
    exactly when every class that start reaches on the support graph (the
    chain's CSR entries) has a Rabin witness; no probability is read.  The
    states start reaches are labelled by one traversal from it, made only
    if some class (named by its first state) has no witness.
    """
    witnesses = tuple(rabin_witness(comp, acc_pairs)
                      for comp in ca.recurrent_classes)
    bad = [comp[0] for comp, k in zip(ca.recurrent_classes, witnesses)
           if k is None]
    accepted = not bad or not (strongly_connected_components(
        ca.chain.indptr, ca.chain.indices, roots=[start])[bad] >= 0).any()
    defect = float(1.0 - ca.absorb.sum(axis=1).min())
    return Certificate(recurrent_classes=ca.recurrent_classes,
                       witness_pairs=witnesses, absorption_defect=abs(defect),
                       accepted=accepted)


def utility_vector(m: Mdp, u, p) -> np.ndarray:
    """v(s) = sum_a mu(s,a) u(s,a) for a utility u over m's pairs, summed
    in action order."""
    return np.bincount(m.pair_state, weights=p * u, minlength=m.n_states)


def _limit_row(ca: ChainAnalysis, a) -> np.ndarray:
    """x P* for the class weights a = x absorb: a[k] times class k's
    stationary vector on its states, zero on the transient ones."""
    row = np.zeros(ca.chain.n_states)
    for k, comp in enumerate(ca.recurrent_classes):
        row[list(comp)] = a[k] * ca.stationary[k]
    return row


def average_utility(ca: ChainAnalysis, m: Mdp, u, p, start) -> float:
    """Long-run average utility from `start`: the start row of P* times v."""
    return float(_limit_row(ca, ca.absorb[start]) @ utility_vector(m, u, p))


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
    """The potential g solving (I - P + P*) g = v, without forming P*
    (relative values, Puterman, Markov Decision Processes, 1994, 8.2).

    On each recurrent class k, (I - P_kk) h + rho_k 1 = v_k with h = 0 at
    the class's last state, whose column holds the ones, so rho_k is the
    solution there; g_k = h shifted so that pi_k g_k = rho_k.  On the
    transient states T, g_T = (I - P_TT)^{-1} (v_T + P_TR g_R - absorb_T
    rho).  Each system is invertible, so a residual above POTENTIAL_TOL
    signals degenerate numerics, not a modeling error.
    """
    v = utility_vector(m, u, p)
    chain = ca.chain
    g = np.zeros(chain.n_states)
    rho = np.zeros(len(ca.recurrent_classes))
    for k, states in enumerate(ca.recurrent_classes):
        idx = list(states)
        x = _solve(len(idx), _bordered(_class_block(chain, states), -1.0),
                   v[idx], "potential", tol=POTENTIAL_TOL)
        rho[k] = x[-1]
        x[-1] = 0.0
        g[idx] = x + (rho[k] - float(ca.stationary[k] @ x))
    if ca.transient:
        klass = _class_index(chain.n_states, ca.recurrent_classes)
        tr = np.flatnonzero(klass < 0)
        system, rows, cols, vals = _transient_system(chain, klass)
        rhs = v[tr] + np.bincount(rows, weights=vals * g[cols],
                                  minlength=tr.size) - ca.absorb[tr] @ rho
        g[tr] = _solve(tr.size, system, rhs, "potential", tol=POTENTIAL_TOL)
    return g


def _deviation(m, ca, chain_p, mu, mu_prime, u):
    """d = (v' - v) + (P' - P) g, with P and g from mu's analysis ca."""
    g = potential_vector(ca, m, u, mu)
    v = utility_vector(m, u, mu)
    v_p = utility_vector(m, u, mu_prime)
    return (v_p - v) + (chain_p.matvec(g) - ca.chain.matvec(g))


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
    return _limit_row(ca, ca.chain.pi0 @ ca.absorb)


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
