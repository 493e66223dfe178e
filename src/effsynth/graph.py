"""Qualitative structure of MDPs: end components, accepting decompositions,
almost-sure regions, and target-seeking action assignment.

Every algorithm reads the model's flat state-action arrays (see model.Mdp):
action sets are boolean masks over the pairs, and each round of a fixpoint
is a few array operations over all successor entries at once.  An end
component is what a policy is, a read-only array over its model's pairs:
the boolean mask of its kept pairs, whose states are those owning a kept
pair.  A region is a boolean state mask.  A support digraph is only ever
the CSR arrays (indptr, indices) that model.support_csr builds, and
strongly_connected_components labels every node on them: an iterative
Tarjan in Python up to chain.DENSE_MAX nodes, so that small runs load no
scipy, and scipy's compiled kernel above it, with the same labels;
reachable is the one forward search, the mask of what some nodes reach.
The SCC refinement in mec_decompose makes each component strongly
connected, and no walk witness is stored.  amec_filter takes the MECs and
MAECs, and almost_sure_region the AMECs, that the caller has already
computed, so a synthesis decomposes the product once; a sub-model cut by
restrict gathers its share of those masks through its parent_pair, and of
the Rabin pairs' state masks through its states' indices.  One backward
breadth-first search grows a state mask through a pair mask:
almost_sure_region runs it through the pairs that stay inside its
candidate set, and attractor_policy through every pair, keeping each
joining state's lowest pair into the grown region.

All algorithms are deterministic: ties break on the lowest state index, then
the lowest action index.
"""

import numpy as np

from .model import Mdp, SolverError, gather_pairs, support_csr


class Unreachable(SolverError):
    """The peeling loop stalled before every state was assigned."""


def _entering(m, target):
    """Pairs with a positive-probability successor inside the boolean state
    mask `target`."""
    out = np.zeros(m.n_pairs, dtype=bool)
    out[m.succ_pair[(m.succ_prob > 0.0) & target[m.succ_state]]] = True
    return out


def _with_pair(m, pairs):
    """States owning at least one pair of the boolean pair mask."""
    out = np.zeros(m.n_states, dtype=bool)
    out[m.pair_state[pairs]] = True
    return out


def _successors(m, keep):
    """The support digraph of the kept pairs (a boolean mask) as CSR arrays
    (indptr, indices): s -> t iff a kept pair of s can move to t."""
    e = keep[m.succ_pair] & (m.succ_prob > 0.0)
    return support_csr(m.n_states, m.succ_src[e], m.succ_state[e])[:2]


def strongly_connected_components(indptr, indices):
    """The strongly connected components of the digraph whose node v has
    the successors indices[indptr[v]:indptr[v + 1]].

    Returns each node's component label: 0, 1, ... in the order of the
    components' lowest nodes.  A graph of at most chain.DENSE_MAX nodes is
    labelled by _tarjan, in Python, so that small runs load no scipy; a
    larger one by _pearce, in compiled code.  Both give the same labels once
    renumbered here.
    """
    from .chain import DENSE_MAX  # read at call time: chain imports graph
    label = (_tarjan if len(indptr) - 1 <= DENSE_MAX else _pearce)(
        indptr, indices)
    # renumber the components in the order of their lowest nodes
    _, first, inv = np.unique(label, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


def _tarjan(indptr, indices):
    """Tarjan's algorithm (SIAM J. Comput. 1972), iterative: a component
    label per node.  A visited node is on Tarjan's stack exactly while it
    has no label."""
    n = len(indptr) - 1
    ptr, succ = indptr.tolist(), indices.tolist()
    nxt = ptr[:-1]          # each node's next edge to scan
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack, path = [], []
    count = n_comp = 0
    for root in range(n):
        if index[root] < 0:
            path.append(root)
        while path:
            v = path[-1]
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            for k in range(nxt[v], ptr[v + 1]):
                w = succ[k]
                if index[w] < 0:
                    nxt[v] = k + 1
                    path.append(w)
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = n_comp
                    n_comp += 1
    return np.array(label, dtype=np.int64)


def _pearce(indptr, indices):
    """_tarjan's labels up to numbering, from scipy's compiled components
    (Pearce, "An improved algorithm for finding the strongly connected
    components of a directed graph", 2005)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    n = len(indptr) - 1
    graph = csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    return connected_components(graph, connection="strong")[1]


def reachable(indptr, indices, sources):
    """The boolean mask of the nodes that the nodes sources reach, these
    included, in the digraph of strongly_connected_components: one
    depth-first search in Python, linear in the edges it scans."""
    ptr, succ = indptr.tolist(), indices.tolist()
    stack = np.unique(sources).tolist()
    seen = set(stack)
    while stack:
        v = stack.pop()
        new = set(succ[ptr[v]:ptr[v + 1]]) - seen
        seen |= new
        stack.extend(new)
    return np.isin(np.arange(len(ptr) - 1), list(seen))


def mec_decompose(m: Mdp, states=None):
    """All maximal end components, by iterative SCC refinement.

    Starting from the boolean state mask states (default: the whole MDP) and
    the actions that stay inside it, repeatedly drop state-action pairs whose
    successors leave the pair's SCC, and states left without actions, until
    stable.  The surviving SCCs are the MECs, returned as pair masks sorted
    by lowest state: each is closed, and the digraph induced by its kept
    actions is strongly connected.
    """
    keep = closed_pairs(m, np.ones(m.n_states, dtype=bool) if states is None
                        else states)
    pos = m.succ_prob > 0.0
    while True:
        comp = strongly_connected_components(*_successors(m, keep))
        cut = pos & (comp[m.succ_state] != comp[m.succ_src])
        dropped = keep.copy()
        dropped[m.succ_pair[cut]] = False
        if (dropped == keep).all():
            break
        keep = dropped

    # stable, no kept pair leaves its component: one MEC per component of
    # the states still owning a pair, in the order of their lowest states
    mecs = np.where(keep, comp[m.pair_state], -1) == \
        np.unique(comp[_with_pair(m, keep)])[:, None]
    mecs.flags.writeable = False
    return list(mecs)


def within(inner, outer):
    """Every pair of the mask inner is a pair of the mask outer."""
    return not (inner & ~outer).any()


def maec_decompose(pm: Mdp):
    """All maximal accepting end components.

    Per Rabin pair (B, G): decompose the MDP restricted to states outside B
    into MECs and keep those meeting G; then discard candidates contained in
    another candidate (all of their pairs kept by it).
    """
    candidates = []
    for b, g in pm.acc_pairs:
        meets_g = g[pm.pair_state]
        for ec in mec_decompose(pm, ~b):
            if (ec & meets_g).any():
                candidates.append(ec)
    out = []
    for i, c in enumerate(candidates):
        dominated = any(
            (j != i and within(c, candidates[j]) and
             (not within(candidates[j], c) or j < i))
            for j in range(len(candidates)))
        if not dominated:
            out.append(c)
    # pairs ascend by state: a mask's first kept pair has its lowest state
    out.sort(key=lambda ec: pm.pair_state[np.argmax(ec)])
    return out


def amec_filter(mecs, maecs):
    """The MECs (from mec_decompose) containing at least one of the MAECs
    (from maec_decompose), with full MEC action sets."""
    return [mec for mec in mecs if any(within(ma, mec) for ma in maecs)]


def _backward_search(m, grown, allowed):
    """Grow the boolean state mask grown, in place, by breadth-first layers
    backward through the boolean pair mask allowed, until no state joins or
    every state has: each state outside grown owning an allowed pair with
    a positive-probability successor inside it joins, the whole layer at
    once.  Returns the boolean mask of each joining state's lowest such
    pair."""
    chosen = np.zeros(m.n_pairs, dtype=bool)
    while not grown.all():
        pairs = np.flatnonzero(allowed & _entering(m, grown) &
                               ~grown[m.pair_state])
        if not pairs.size:
            break
        # pairs ascend by (state, action): each state's first is its lowest
        layer, first = np.unique(m.pair_state[pairs], return_index=True)
        chosen[pairs[first]] = True
        grown[layer] = True
    return chosen


def almost_sure_region(pm: Mdp, amecs):
    """The boolean mask of product states from which some policy reaches
    the states of amecs (the result of amec_filter) w.p.1.

    Classic double fixpoint: shrink the candidate set U until every state in U
    can reach the target through actions whose successors never leave U.
    """
    covered = np.zeros(pm.n_pairs, dtype=bool)
    for amec in amecs:
        covered |= amec
    target = _with_pair(pm, covered)
    u = np.ones(pm.n_states, dtype=bool)
    while True:
        r = target & u
        _backward_search(pm, r, closed_pairs(pm, u))
        if (r == u).all():
            return u
        u = r


def attractor_policy(m: Mdp, target, w) -> np.ndarray:
    """Extend policy w from target to all states so target is reached w.p.1.

    Breadth-first layers (_backward_search through every pair): every state
    outside the grown region that has an action with positive one-step
    probability into it takes its lowest such action, and the whole layer
    joins the region at once.  Each fixed action thus moves at least one
    layer closer to the target, which keeps expected hitting times short.
    A state so assigned loses whatever row w gave it.
    """
    grown = np.isin(np.arange(m.n_states), list(target))
    out = np.array(w, dtype=float)
    out[~grown[m.pair_state]] = 0.0
    out[_backward_search(m, grown, np.ones(m.n_pairs, dtype=bool))] = 1.0
    if not grown.all():
        raise Unreachable(f"states {np.flatnonzero(~grown).tolist()} "
                          f"cannot reach the target")
    out.flags.writeable = False
    return out


def restrict(m: Mdp, pairs, initial=None):
    """The sub-model with the pairs of the boolean mask pairs, on the states
    owning one of them; returns (model, ids), where ids is the ascending
    array of those states' indices in m.

    The kept pairs must stay inside those states.  The sub-model's parent
    is m and its parent_pair lists the kept pairs, so a policy on it lifts
    to m by a scatter and one on m scopes to it by a gather.  The local
    initial state maps the given global one, defaulting to the lowest kept
    state (fine for callers that never depend on it).
    """
    ids = np.flatnonzero(_with_pair(m, pairs))
    local = np.full(m.n_states, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    kept = np.flatnonzero(pairs)
    pair_action, succ_ptr, entries = gather_pairs(m, kept)
    state_ptr = np.concatenate(([0], np.cumsum(np.bincount(
        local[m.pair_state[kept]], minlength=len(ids)))))
    succ_state = local[m.succ_state[entries]]
    if (succ_state < 0).any():
        raise ValueError("the sub-MDP is not closed")
    init = int(local[initial]) if initial is not None else 0
    if init < 0:
        raise KeyError(initial)
    sub_m = Mdp.from_arrays(
        [m.state_names[g] for g in ids], m.action_names, init, state_ptr,
        pair_action, succ_ptr, succ_state, m.succ_prob[entries],
        atomic_props=m.atomic_props, labels=[m.labels[g] for g in ids],
        acc_pairs=[(b[ids], g[ids]) for b, g in m.acc_pairs], parent=m,
        parent_pair=kept)
    return sub_m, ids


def closed_pairs(m: Mdp, region):
    """The pairs of the boolean state mask region's states whose
    positive-probability successors all stay inside region, as a boolean
    mask over m's pairs."""
    return region[m.pair_state] & ~_entering(m, ~region)


def is_communicating(m: Mdp):
    """Every state can reach every other under some policy: the full induced
    digraph is one strongly connected component."""
    return not strongly_connected_components(
        *_successors(m, np.ones(m.n_pairs, dtype=bool))).any()
