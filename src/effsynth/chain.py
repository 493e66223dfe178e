"""Exact analysis of finite Markov chains.

A policy's chain on a model is kept in CSR form (model.Mc), whose entries
are exactly its support graph (s -> t iff a pair of s with positive weight
has a positive-probability entry at t), so no threshold on a product w * p
can drop an edge.  graph.strongly_connected_components labels the strongly
connected components of that graph on the CSR arrays; the bottom ones are
the recurrent classes, and certify builds the one Certificate, whose
verdict is that the acceptance condition holds with probability one.  No
n x n array is formed: stationary distributions and absorption
probabilities come from one factor-then-solve helper, dense LU on a block
of at most DENSE_MAX states and SuperLU (scipy.sparse.linalg.splu) above
that, on systems built from the CSR arrays (_solve says how SuperLU is set
up for them).  analyze solves the absorption system at once and each
class's stationary system on first read, so a certificate, which reads
only the classes and absorption, factors nothing on an irreducible chain;
_one_class is that analysis of a chain the caller knows is irreducible.
The analysis keeps the helper's handle on each system it factors, so the
potential vectors g = (I - P + P*)^{-1} v, solved class by class without
P*, reuse those factors and factor nothing themselves.  The average
utility and the limit distribution take their rows of P* from the
absorption probabilities and the per-class stationary vectors.  On top of
that sit the long-run average utility and the reward-to-cost efficiency
for general multichain chains, all returned as plain arrays.
ratio_deviation is the one perturbation step: a unichain policy's efficiency
J and its ratio deviation d_r - J d_c towards another policy, from the
caller's analysis of the policy and its reward and cost potentials solved
on one factor per block, read by the perturbation degrees.  Policies and
utilities are vectors over the model's pairs (see model).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import PROB_TOL, Mc, Mdp, ModelError, SolverError, _ranges, \
    induce_chain, rabin_witness
from .graph import strongly_connected_components

LIMIT_TOL = 1e-9      # most negative entry a stationary vector may have
POTENTIAL_TOL = 1e-8  # residual tolerance for potential solves
# largest system solved by dense LU (SuperLU above it), and largest graph
# whose components graph labels in Python (scipy's csgraph above it)
DENSE_MAX = 250


class SingularSystem(SolverError):
    """A linear solve failed beyond tolerance."""


class NotUnichain(SolverError):
    """An operation required a single recurrent class."""


@dataclass(frozen=True)
class ChainAnalysis:
    """Recurrent structure of a chain, with its class stationary vectors
    solved on first read.

    absorb[s, k] is the probability of ending up (and staying forever) in
    recurrent class k when starting from s.
    """
    chain: Mc
    recurrent_classes: tuple
    transient: frozenset
    absorb: np.ndarray      # n_states x n_classes
    # _solve's handle on T's absorption system, None without transient states
    _absorb_solve: object = field(compare=False, repr=False)

    def is_unichain(self):
        return len(self.recurrent_classes) == 1

    @cached_property
    def _factors(self):
        """Each class's stationary vector and _solve's handle on its
        factored system (_stationary), solved when first read: a
        certificate reads only the classes and absorb."""
        return tuple(_stationary(_class_block(self.chain, states))
                     for states in self.recurrent_classes)

    @cached_property
    def stationary(self):
        """Per-class stationary distribution over the class's states."""
        return tuple(pi for pi, _ in self._factors)


def _entries(*runs):
    """The (rows, cols, vals) runs of a matrix's entries joined into one
    such triplet, in run order."""
    return tuple(np.concatenate(t) for t in zip(*runs))


def _solve(k, system, b, what, transpose=False, tol=None):
    """x with M x = b, or M^T x = b when transpose, for M the k x k matrix
    whose entries are the (rows, cols, vals) triplet system, duplicates
    added in their order, and the handle solve(b, what, transpose=False,
    tol=None) that solves again on the same factor; b is a vector or a
    k x q array of q right-hand sides.  At most DENSE_MAX states are solved
    by dense LU of the kept matrix; above that by SuperLU (imported only
    then), which factors M^T: M grouped into CSR arrays by a stable sort on
    the rows, the same arrays read as CSC.  It orders by minimum degree on
    M^T + M and keeps a diagonal pivot down to a tenth of its column's
    largest entry: with its defaults (COLAMD, partial pivoting) the dense
    row of ones in M^T of a bordered system is picked early and fills the
    factors, about n^2/2 entries on an n-state cycle.  With tol, the
    residual max |M x - b| must not exceed it."""
    rows, cols, vals = system
    if k <= DENSE_MAX:
        a = np.bincount(rows * k + cols, weights=vals,
                        minlength=k * k).reshape(k, k)
    else:
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                            minlength=k))))
        try:
            lu = splu(csc_array((vals[order], cols[order], indptr),
                                shape=(k, k)),
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
        except RuntimeError as e:
            raise SingularSystem(f"{what} solve failed: {e}") from e

    def solve(b, what, transpose=False, tol=None):
        try:
            x = (lu.solve(b, trans="N" if transpose else "T") if k > DENSE_MAX
                 else np.linalg.solve(a.T if transpose else a, b))
        except np.linalg.LinAlgError as e:
            raise SingularSystem(f"{what} solve failed: {e}") from e
        if tol is None:
            return x
        mx = [np.bincount(rows, weights=vals * xj[cols], minlength=k)
              for xj in x.reshape(k, -1).T]
        resid = float(np.max(np.abs(np.stack(mx, axis=1) - b.reshape(k, -1))))
        if resid > tol:
            raise SingularSystem(f"{what} residual {resid:g} above tolerance")
        return x

    return solve(b, what, transpose, tol), solve


def _bordered(blk: Mc):
    """The entries of P - I, P the matrix of blk, with its last column
    replaced by ones: P's, then the diagonal, then the ones."""
    k = blk.n_states
    keep = blk.indices != k - 1
    diag = np.arange(k - 1)
    return _entries((blk.row[keep], blk.indices[keep], blk.data[keep]),
                    (diag, diag, np.full(k - 1, -1.0)),
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


def _stationary(chain: Mc):
    """The stationary row vector of an irreducible chain, and the handle
    of its factored system (see _solve): one LU solve of (P^T - I) pi = 0
    with its last equation replaced by sum(pi) = 1, checked and clipped at
    zero.  The solve reads the system through its transpose, P - I with its
    last column replaced by ones."""
    k = chain.n_states
    b = np.zeros(k)
    b[-1] = 1.0
    pi, solve = _solve(k, _bordered(chain), b, "stationary", transpose=True)
    if np.any(pi < -LIMIT_TOL) or abs(pi.sum() - 1.0) > 1e-7:
        raise SingularSystem("stationary distribution out of tolerance")
    return np.maximum(pi, 0.0), solve


def analyze(m: Mdp, w) -> ChainAnalysis:
    """Classify the states of the chain that policy w induces on m, on the
    exact support graph, and solve for its absorption probabilities; each
    class's stationary vector is solved when the analysis is first asked
    for it."""
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

    absorb = np.zeros((n, len(classes)))
    absorb[rec, klass[rec]] = 1.0
    solve = None
    if tr.size:
        system, rows, cols, vals = _transient_system(chain, klass)
        rhs = np.bincount(rows * len(classes) + klass[cols], weights=vals,
                          minlength=tr.size * len(classes))
        absorb[tr], solve = _solve(tr.size, system, rhs.reshape(tr.size, -1),
                                   "absorption")

    return ChainAnalysis(chain=chain, recurrent_classes=classes,
                         transient=frozenset(tr.tolist()), absorb=absorb,
                         _absorb_solve=solve)


def _one_class(chain: Mc) -> ChainAnalysis:
    """The analysis of an irreducible chain, classified by the caller: one
    class of every state, absorbed from everywhere, whose stationary vector
    is solved on first read, as analyze's are."""
    n = chain.n_states
    return ChainAnalysis(chain=chain, recurrent_classes=(tuple(range(n)),),
                         transient=frozenset(), absorb=np.ones((n, 1)),
                         _absorb_solve=None)


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
    (relative values, Puterman, Markov Decision Processes, 1994, 8.2), on
    the factors of ca's analysis: no system is assembled or factored here.

    u is one utility over m's pairs, or several stacked as the rows of a
    2-D array; then g has one row per utility.  On each recurrent class k,
    (I - P_kk) h + rho_k 1 = v_k with h = 0 at the class's last state,
    whose column holds the ones, so rho_k is the solution there; that
    matrix is the class's stationary one times diag(-1, ..., -1, 1).
    g_k = h shifted so that pi_k g_k = rho_k.  On the transient states T,
    the absorption system gives g_T = (I - P_TT)^{-1} (v_T + P_TR g_R -
    absorb_T rho).  Each system is invertible, so a residual above
    POTENTIAL_TOL signals degenerate numerics, not a modeling error.
    """
    v = np.stack([utility_vector(m, uj, p) for uj in np.atleast_2d(u)],
                 axis=1)
    g = np.zeros(v.shape)
    rho = np.zeros((len(ca.recurrent_classes), v.shape[1]))
    for k, states in enumerate(ca.recurrent_classes):
        idx = list(states)
        h = -ca._factors[k][1](v[idx], "potential", tol=POTENTIAL_TOL)
        rho[k] = -h[-1]
        h[-1] = 0.0
        g[idx] = h + (rho[k] - ca.stationary[k] @ h)
    if ca.transient:
        tr = np.array(sorted(ca.transient))
        # g is still zero on T, so P g is P_TR g_R there
        p_g = np.stack([ca.chain.matvec(gj)[tr] for gj in g.T], axis=1)
        g[tr] = ca._absorb_solve(v[tr] + p_g - ca.absorb[tr] @ rho,
                                 "potential", tol=POTENTIAL_TOL)
    return g.T if np.ndim(u) == 2 else g[:, 0]


def _deviation(m, ca, chain_p, mu, mu_prime, u, g):
    """d = (v' - v) + (P' - P) g, with P from mu's analysis ca and g mu's
    potential for u."""
    v = utility_vector(m, u, mu)
    v_p = utility_vector(m, u, mu_prime)
    return (v_p - v) + (chain_p.matvec(g) - ca.chain.matvec(g))


def ratio_deviation(ca: ChainAnalysis, m: Mdp, mu, mu_prime, r, c,
                    chain_prime=None):
    """The perturbation step towards mu_prime from a unichain policy mu,
    whose chain analysis on m is ca (as decode_ratio_policy returns it).

    Returns (j, d): mu's efficiency j from the initial state, and the ratio
    deviation d = d_r - j d_c, from mu's potentials for r and c, solved
    together.  mu_prime's chain is chain_prime, induced here when not
    given.  Raises NotUnichain unless ca has a single recurrent class.
    """
    if not ca.is_unichain():
        raise NotUnichain(
            f"{len(ca.recurrent_classes)} recurrent classes under mu")
    chain_p = (induce_chain(m, mu_prime) if chain_prime is None
               else chain_prime)
    j = efficiency(ca, m, r, c, mu, m.initial)
    g_r, g_c = potential_vector(ca, m, np.stack((r, c)), mu)
    d_r = _deviation(m, ca, chain_p, mu, mu_prime, r, g_r)
    d_c = _deviation(m, ca, chain_p, mu, mu_prime, c, g_c)
    return j, d_r - j * d_c


def limit_distribution(ca: ChainAnalysis) -> np.ndarray:
    """pi0 P*: the limit distribution seen from the chain's initial state."""
    return _limit_row(ca, ca.chain.pi0 @ ca.absorb)

