"""Linear and linear-fractional programs: HiGHS for the ratio program, a
dense tableau for the average-reward LP.

solve_lp hands an equality-form LP (max c.x, A x = b, x >= 0; A dense or a
scipy sparse array) to HiGHS's dual simplex, which returns a vertex, as the
support-based decoders need, and checks the status, the signs and the
backward error of what comes back.  It drives HiGHS through the bindings
scipy ships (_highs): scipy's linear-programming front end runs the same
solver with the same options, but its Python layer cost as much as the
solve itself on the ratio programs.  HiGHS runs without presolve
(HIGHS_OPTIONS): on the ratio programs of the delivery grids and of random
multichain products it cost about a fifth of the solve time, and each
program keeps its optimal support without it.  Its primal and dual
feasibility tolerances are 1e-10, below the FEAS_TOL its answers are
checked at; at the default 1e-7, small random products failed those
checks.  scipy is imported inside the solvers, so a process that solves
no LP never loads it.  The reward-to-cost ratio program over occupation
measures is reduced to an LP by the Charnes-Cooper substitution and
assembled sparse, straight from the model's pair and successor arrays.

The multichain average-reward LP is assembled the same way, but still
runs on the in-house dense primal tableau (_solve_tableau: two phases,
Bland's rule on degenerate stalls, periodic reinversion, row-wise
pivots, and a safe-mode retry that reinverts after every pivot but solves
only for the columns the next pivot choice reads).  HiGHS solves
multichain instances on which the tableau fails, and the benchmark's
evaluate time, a sum over every policy a round makes, would read their
extra policies as a slowdown; the LP moves once evaluate is timed per
call.

Rewards and costs come in, and solutions stay, as vectors over the model's
pairs; the decoders turn solutions into policy weight vectors, summing
state masses and normalizations in pair order.
"""

from dataclasses import dataclass

import numpy as np

from .model import Mdp, SolverError
from .graph import attractor_policy, is_communicating
from .chain import _entries, analyze

HIGHS_METHOD = "highs-ds"  # scipy's name for the dual simplex solve_lp runs
HIGHS_OPTIONS = {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}  # and its options
PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
SUPPORT_THRESHOLD = 1e-9  # occupation mass below this is treated as zero


class NumericalFailure(SolverError):
    """Solver breakdown, or a solution beyond tolerance."""


class InfeasibleError(SolverError):
    """The program has no feasible point (malformed model upstream)."""


class NotCommunicating(SolverError):
    """The ratio program requires a communicating model."""


class DegenerateDecoding(SolverError):
    """The support threshold leaves no mass to decode: at some state for
    both the x and y rows, or anywhere in the occupation weights."""


@dataclass(frozen=True)
class LpProblem:
    """max c.x  s.t.  a_eq x = b_eq, x >= 0; a_eq is a dense array or a
    scipy sparse array, best a csc_array, which solve_lp passes to HiGHS
    as it is (the tableau takes dense only)."""
    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray


@dataclass(frozen=True)
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None = None
    value: float | None = None


REFRESH_INTERVAL = 64   # reinversion cadence, purges accumulated pivot error
STALL_LIMIT = 256       # degenerate pivots tolerated before Bland's rule


class _Tableau:
    """Dense simplex tableau with periodic reinversion.

    The basis list is the source of truth: refresh() recomputes the tableau
    as B^-1 [A | b] from the original data ([A | b] is built once), so
    roundoff from long runs of rank-one pivot updates never compounds past
    REFRESH_INTERVAL pivots.  A pivot updates only the rows its column
    reaches (see pivot()).

    In safe mode a pivot only changes the basis, and the reinversion after
    it solves only the nonbasic columns and b: the next pivot choice reads
    nothing else.  The fast mode's reinversions solve every column, because
    the rank-1 pivots after them carry the basic columns forward (a leaving
    variable's column is its basic column updated), and so does phase 1's
    drive-out of artificials, whose argmax over a row reads them.
    """

    def __init__(self, a, b, cost):
        self.a = a
        self.b = b
        self.ab = np.hstack([a, b.reshape(-1, 1)])
        self.cost = cost
        self.m, self.n_total = a.shape
        self.basis = None
        self.tab = None
        self.obj = None

    def set_basis(self, basis):
        self.basis = list(basis)
        self.in_basis = np.zeros(self.n_total, dtype=bool)
        self.in_basis[self.basis] = True
        self.refresh()

    def refresh(self, full=True):
        """Recompute the tableau as B^-1 [A | b] and the reduced costs.
        With full False only the nonbasic columns and b are solved for and
        the basic columns are left zero.  LAPACK gives a solved column the
        same bits whatever columns come with it, and the reduced costs are
        formed over the full width (over the solved columns alone they
        would round differently), so every value _iterate reads is the
        full reinversion's, bit for bit."""
        bmat = self.a[:, self.basis]
        cols = slice(None) if full else \
            np.append(np.flatnonzero(~self.in_basis), self.n_total)
        try:
            sol = np.linalg.solve(bmat, self.ab[:, cols])
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"singular basis on reinversion: {e}") from e
        self.tab = np.zeros_like(self.ab)
        self.tab[:, cols] = sol
        rhs = self.tab[:, -1]
        if np.any(rhs < -1e-7):
            raise NumericalFailure(
                f"lost primal feasibility (min rhs {rhs.min():g})")
        np.clip(rhs, 0.0, None, out=rhs)
        cb = self.cost[self.basis]
        self.obj = cb @ self.tab
        self.obj[:-1] -= self.cost

    def pivot(self, row, col, update=True):
        """Pivot on (row, col): the row is divided by the pivot, and the
        rank-1 update tab -= outer(colv, prow) (colv the pivot column, prow
        the divided row) is subtracted on the other rows where colv is
        exactly nonzero, with the full update's arithmetic: a skipped row
        would only lose signed zeros, which nothing reads.  No tableau-sized
        array is allocated.  With update False only the basis changes (the
        pivot element is still checked), for a caller that reinverts next."""
        piv = self.tab[row, col]
        if abs(piv) < 1e-11:
            raise NumericalFailure(f"pivot element {piv:g} too small")
        if update:
            self.tab[row, :] /= piv
            prow = self.tab[row, :]
            rows = np.flatnonzero(self.tab[:, col])
            rows = rows[rows != row]
            self.tab[rows] -= np.multiply.outer(self.tab[rows, col], prow)
            self.obj -= self.obj[col] * prow
        self.in_basis[self.basis[row]] = False
        self.in_basis[col] = True
        self.basis[row] = col

    def value(self):
        return float(self.obj[-1])


def _iterate(t: _Tableau, n_cols, max_iter, safe=False):
    """Run simplex to optimality on the first n_cols columns.

    Pricing is Dantzig's (most negative reduced cost) with a Harris-style
    ratio test that prefers the largest pivot element among minimum-ratio
    rows.  A long degenerate stall switches to Bland's smallest-index rule,
    whose pivots cannot cycle, until the objective moves again.  Safe mode
    reinverts after every pivot, solving only for the nonbasic columns and
    b (the pivot itself only changes the basis); the fast mode reinverts
    every column, periodically and whenever the entering column of a stale
    tableau has no positive entry (it might only seem unbounded) or a pivot
    would land on a suspiciously small element (the true value might be
    zero, which would corrupt the basis).
    """
    stall = 0
    bland = False
    since_refresh = 0
    last = t.value()
    for _ in range(max_iter):
        reduced = t.obj[:n_cols]
        # basic columns are excluded: drift can give them a spuriously
        # negative reduced cost, and re-entering one corrupts the basis
        entering = np.nonzero((reduced < -PIVOT_TOL)
                              & ~t.in_basis[:n_cols])[0]
        if entering.size == 0:
            return "optimal"
        if bland:
            enter = int(entering[0])
        else:
            enter = int(entering[np.argmin(reduced[entering])])
        col = t.tab[:, enter]
        mask = col > PIVOT_TOL
        if not mask.any():
            if since_refresh:
                t.refresh()
                since_refresh = 0
                continue
            return "unbounded"
        rhs = t.tab[:, -1]
        ratios = np.where(mask, rhs / np.where(mask, col, 1.0), np.inf)
        best = float(ratios.min())
        window = 1e-9 * max(1.0, abs(best))
        tied = np.nonzero(ratios <= best + window)[0]
        if bland:
            leave = int(min(tied, key=lambda i: t.basis[i]))
        else:
            leave = int(max(tied, key=lambda i: (col[i], -t.basis[i])))
        if since_refresh and abs(t.tab[leave, enter]) < 1e-6:
            t.refresh()
            since_refresh = 0
            continue  # re-derive the choice from exact data
        t.pivot(leave, enter, update=not safe)
        since_refresh += 1
        if safe or since_refresh >= REFRESH_INTERVAL \
                or np.any(t.tab[:, -1] < -1e-9):
            t.refresh(full=not safe)
            since_refresh = 0
        now = t.value()
        if now > last + 1e-12:
            stall = 0
            bland = False
            last = now
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
    raise NumericalFailure("simplex iteration limit exceeded")


def solve_lp(p: LpProblem) -> LpResult:
    """HiGHS's dual simplex (HIGHS_METHOD, with HIGHS_OPTIONS), run by _highs.

    HiGHS's model status kOptimal is optimal, kInfeasible infeasible and
    kUnbounded unbounded; any other status (an iteration limit, a numerical
    error, kUnboundedOrInfeasible) is a NumericalFailure naming it and
    HiGHS's string for it.  The solution is checked as the tableau's is,
    except that its residual is bounded by backward error:
    |Ax - b| <= FEAS_TOL (|A| |x| + |b|) in the infinity norm, with A's
    absolute row sums taken from its column-wise arrays.
    Inconsistent dimensions and non-finite data raise ValueError.
    """
    from scipy.optimize._highspy._core import HighsModelStatus
    from scipy.sparse import csc_array

    cols = csc_array(p.a_eq)
    b, c = _lp_data(p, cols.shape, cols.data)
    status, message, x = _highs(cols, b, c)
    if status == HighsModelStatus.kInfeasible:
        return LpResult(status="infeasible")
    if status == HighsModelStatus.kUnbounded:
        return LpResult(status="unbounded")
    if status != HighsModelStatus.kOptimal:
        raise NumericalFailure(f"HiGHS status {int(status)}: {message}")
    x = _cleaned(np.array(x, dtype=float))
    resid = float(np.max(np.abs(cols @ x - b)))
    row_abs = np.bincount(cols.indices, weights=np.abs(cols.data),
                          minlength=b.size)
    bound = FEAS_TOL * (float(np.max(row_abs)) * float(x.max())
                        + float(np.max(np.abs(b))))
    if resid > bound:
        raise NumericalFailure(
            f"solution residual {resid:g} beyond backward-error bound "
            f"{bound:g}")
    return LpResult(status="optimal", x=x, value=float(c @ x))


def _lp_data(p, shape, entries):
    """p's b_eq and c as float arrays; ValueError unless its constraint
    matrix's shape is (b.size, c.size) and entries, b and c are finite."""
    b = np.asarray(p.b_eq, dtype=float)
    c = np.asarray(p.c, dtype=float)
    if shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    if not (np.isfinite(entries).all() and np.isfinite(b).all()
            and np.isfinite(c).all()):
        raise ValueError("LP data must be finite")
    return b, c


def _highs(a, b, c):
    """max c.x subject to a x = b and x >= 0, with a a csc_array, on a fresh
    HiGHS instance, so that no basis carries over between solves: returns
    HiGHS's model status, its string and the column values.

    The LP is posed as HiGHS's minimization of -c.x with columns in
    [0, kHighsInf] and rows fixed at b, and HiGHS runs with HIGHS_OPTIONS
    plus what the highs-ds method sets: the simplex solver, its dual
    strategy and no output.  The arrays go in as lists, which the bindings
    copy faster than numpy arrays."""
    from scipy.optimize._highspy import _core as h

    n_rows, n_cols = a.shape
    model = h.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_cols
    model.num_row_ = model.a_matrix_.num_row_ = n_rows
    model.a_matrix_.format_ = h.MatrixFormat.kColwise
    model.a_matrix_.start_ = a.indptr.tolist()
    model.a_matrix_.index_ = a.indices.tolist()
    model.a_matrix_.value_ = a.data.tolist()
    model.col_cost_ = (-c).tolist()
    model.col_lower_ = [0.0] * n_cols
    model.col_upper_ = [h.kHighsInf] * n_cols
    model.row_lower_ = model.row_upper_ = b.tolist()
    highs = h._Highs()
    dual = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options = dict(HIGHS_OPTIONS,
                   presolve="on" if HIGHS_OPTIONS["presolve"] else "off",
                   solver="simplex", simplex_strategy=int(dual),
                   output_flag=False, log_to_console=False)
    for key, val in options.items():
        if highs.setOptionValue(key, val) != h.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={val!r}")
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    return (status, highs.modelStatusToString(status),
            highs.getSolution().col_value)


def _cleaned(x):
    """A basic solution x, checked and cleaned in place: an entry below
    -FEAS_TOL is a NumericalFailure, dust below 1e-14 in magnitude is
    cleared and the rest is clipped at zero."""
    if np.any(x < -FEAS_TOL):
        raise NumericalFailure(f"negative basic value {x.min():g}")
    x[np.abs(x) < 1e-14] = 0.0
    np.clip(x, 0.0, None, out=x)
    return x


def _solve_tableau(p: LpProblem) -> LpResult:
    """The dense primal simplex, both phases (the average-reward LP's
    solver, and the reference solve_lp is tested against).

    Dantzig pricing with Bland's smallest-index rule engaged on degenerate
    stalls (anti-cycling), Harris-style largest-pivot ratio ties, and
    reinversion every few dozen pivots for numerical hygiene.  A numerical
    failure triggers one retry with reinversion after every pivot; that
    retry solves only the nonbasic columns and b, and the fast attempt and
    phase 1's drive-out every column (see _Tableau).
    """
    try:
        return _solve_lp(p, safe=False)
    except NumericalFailure:
        return _solve_lp(p, safe=True)


def _phase1(a, b, max_iter, safe):
    """A feasible basis of a x = b (b >= 0) from the artificial basis:
    returns (a, b, basis) with redundant rows dropped, or None if the
    program is infeasible."""
    m, n = a.shape
    # artificial basis, maximize -sum(artificials)
    full = np.hstack([a, np.eye(m)])
    c1 = np.zeros(n + m)
    c1[n:] = -1.0
    t = _Tableau(full, b, c1)
    t.set_basis(range(n, n + m))
    status = _iterate(t, n + m, max_iter, safe)
    art_sum = -t.value()
    if status != "optimal" or art_sum > 1e-7:
        return None

    # drive leftover artificials out of the basis, dropping redundant rows;
    # reinvert first so the pivots run on exact data, and pivot on the
    # largest structural entry (a tiny pivot with a nonzero basic artificial
    # would inject a macroscopic infeasibility)
    t.refresh()
    keep = []
    for i in range(m):
        if t.basis[i] < n:
            keep.append(i)
            continue
        row = t.tab[i, :n]
        j = int(np.argmax(np.abs(row)))
        if abs(row[j]) > 1e-7:
            t.pivot(i, j)
            keep.append(i)
    if len(keep) < m:
        return a[keep, :], b[keep], [t.basis[i] for i in keep]
    return a, b, list(t.basis)


def _solve_lp(p: LpProblem, safe: bool) -> LpResult:
    a = np.asarray(p.a_eq, dtype=float)
    b, c = _lp_data(p, a.shape, a)
    m, n = a.shape
    neg = b < 0
    a = np.where(neg[:, None], -a, a)
    b = np.where(neg, -b, b)
    max_iter = 20000 + 200 * (m + n)
    start = _phase1(a, b, max_iter, safe)
    if start is None:
        return LpResult(status="infeasible")
    a, b, basis = start

    # phase 2 on the original objective over the structural columns
    t = _Tableau(a, b, c)
    t.set_basis(basis)
    status = _iterate(t, n, max_iter, safe)
    if status == "unbounded":
        return LpResult(status="unbounded")

    # recover the basic solution by a direct solve with one round of
    # iterative refinement, which brings the residual to working precision
    x = np.zeros(n)
    if b.size:
        bmat = a[:, t.basis]
        xb = np.linalg.solve(bmat, b)
        xb += np.linalg.solve(bmat, b - bmat @ xb)
        for i, bi in enumerate(t.basis):
            x[bi] = xb[i]
    _cleaned(x)
    scale = max(1.0, float(np.max(np.abs(p.b_eq))) if p.b_eq.size else 1.0)
    resid = (float(np.max(np.abs(p.a_eq @ x - p.b_eq)))
             if p.b_eq.size else 0.0)
    if resid > FEAS_TOL * scale:
        raise NumericalFailure(f"solution residual {resid:g} beyond tolerance")
    return LpResult(status="optimal", x=x, value=float(c @ x))


def _flow_entries(m: Mdp, row0=0, col0=0):
    """The (rows, cols, vals) entries of each pair's flow balance in its
    column (col0 + its pair number): +1 at its state's row, then -P(t|s,a)
    at each successor's row, all rows offset by row0."""
    return (np.concatenate([row0 + m.pair_state, row0 + m.succ_state]),
            np.concatenate([col0 + np.arange(m.n_pairs), col0 + m.succ_pair]),
            np.concatenate([np.ones(m.n_pairs), -m.succ_prob]))


def _csc(shape, *runs):
    """The csc_array of the given shape whose entries are the (rows, cols,
    vals) runs, an entry hit twice holding the sum.  Each entry of the LPs
    below sums at most two terms, +1 and -p, so it is 1 - p or -p exactly
    as a loop over the pairs makes it.  Column-wise is the layout HiGHS
    takes, so solve_lp converts nothing."""
    from scipy.sparse import csc_array
    rows, cols, vals = _entries(*runs)
    return csc_array((vals, (rows, cols)), shape=shape)


@dataclass(frozen=True)
class LfpSolution:
    """Occupation weights gamma over the pairs (summing to one) and the
    optimal ratio."""
    gamma: np.ndarray
    value: float


def solve_ratio_lfp(m: Mdp, r, c) -> LfpSolution:
    """Maximum reward-to-cost ratio over stationary occupation measures.

    The fractional objective over flow-balanced weights is rescaled by the
    Charnes-Cooper substitution (denominator pinned to one, the normalization
    turned into a free scale), solved as an LP, and scaled back so the weights
    sum to one.  The value equals the optimal ratio from every state of the
    communicating model.

    The constraint matrix is a csc_array: the flow balance of each pair
    (_flow_entries) and the cost on row n.
    """
    if not is_communicating(m):
        raise NotCommunicating("ratio program needs a communicating model")
    n, k = m.n_states, m.n_pairs
    a_eq = _csc((n + 1, k), _flow_entries(m),
                (np.full(k, n), np.arange(k), c))
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0

    res = solve_lp(LpProblem(c=r, a_eq=a_eq, b_eq=b_eq))
    if res.status == "infeasible":
        raise InfeasibleError("ratio program infeasible: malformed model")
    if res.status == "unbounded":
        raise NumericalFailure("ratio program unbounded: cost not positive?")
    y = res.x
    total = float(y.sum())
    if total <= 0.0:
        raise NumericalFailure("ratio program returned zero occupation mass")
    return LfpSolution(gamma=y / total, value=float(res.value))


def decode_ratio_policy(m: Mdp, sol: LfpSolution,
                        support_threshold=SUPPORT_THRESHOLD):
    """Policy carried by the occupation weights, with its chain analysis:
    returns (policy, ca).

    Inside the support Q the policy is the normalized weights (state masses
    and both normalizations summed in pair order); outside, actions are
    assigned so Q is reached w.p.1.  If the support splits into several
    recurrent classes (they tie in ratio at an optimum), everything is steered
    into the class with the lowest state index so the result is unichain.
    Occupation mass at or below support_threshold counts as zero (if no
    state's mass lies above it, DegenerateDecoding names it); a support
    state whose pairs all lie at or below it keeps its first largest pair
    alone.
    """
    mass = np.bincount(m.pair_state, weights=sol.gamma, minlength=m.n_states)
    support = mass > support_threshold
    if not support.any():
        raise DegenerateDecoding(
            f"no state's occupation mass lies above the support threshold "
            f"{support_threshold:g}")
    keep = _kept_pairs(m, sol.gamma, support, support_threshold)
    dist = np.zeros(m.n_pairs)
    dist[keep] = sol.gamma[keep] / mass[m.pair_state[keep]]
    policy = attractor_policy(m, np.flatnonzero(support),
                              _normalized(m, dist, keep))
    ca = analyze(m, policy)
    if len(ca.recurrent_classes) > 1:
        chosen = min(ca.recurrent_classes, key=lambda comp: comp[0])
        kept = np.where(np.isin(m.pair_state, chosen), policy, 0.0)
        policy = attractor_policy(m, chosen, kept)
        ca = analyze(m, policy)
    return policy, ca


def _kept_pairs(m, row, states, support_threshold):
    """The pairs of the boolean state mask states whose entry of row lies
    above support_threshold; a state none of whose entries does keeps its
    first largest entry alone."""
    keep = states[m.pair_state] & (row > support_threshold)
    ptr = m.state_ptr
    kept = np.bincount(m.pair_state[keep], minlength=m.n_states)
    for s in np.flatnonzero(states & (kept == 0)):
        keep[ptr[s] + np.argmax(row[ptr[s]:ptr[s + 1]])] = True
    return keep


def _normalized(m, vals, keep):
    """vals on the pairs of the boolean mask keep, each divided by the sum
    of its state's kept values (summed in pair order); zero elsewhere."""
    total = np.bincount(m.pair_state[keep], weights=vals[keep],
                        minlength=m.n_states)
    w = np.zeros(m.n_pairs)
    w[keep] = vals[keep] / total[m.pair_state[keep]]
    return w


@dataclass(frozen=True)
class AvgLpSolution:
    """Occupation x and deviation y over the pairs, and the alpha-weighted
    optimal gain."""
    x: np.ndarray
    y: np.ndarray
    gain: float


def solve_avg_reward_lp(m: Mdp, reward) -> AvgLpSolution:
    """Multichain average-reward LP with uniform initial weights.

    Variables x(s,a) (stationary occupation) and y(s,a) (deviation flow);
    constraints balance the stationary flow and route alpha mass into the
    occupation support.  The objective is the alpha-weighted optimal gain.
    The constraint matrix is assembled as the ratio program's is, from the
    two flow-balance blocks and the occupation rows, and handed to the
    tableau dense.
    """
    k = m.n_pairs
    ns = m.n_states
    alpha = np.full(ns, 1.0 / ns)

    a_eq = _csc((2 * ns, 2 * k), _flow_entries(m),
                (ns + m.pair_state, np.arange(k), np.ones(k)),
                _flow_entries(m, row0=ns, col0=k)).toarray()
    b_eq = np.zeros(2 * ns)
    b_eq[ns:] = alpha
    cobj = np.zeros(2 * k)
    cobj[:k] = reward

    res = _solve_tableau(LpProblem(c=cobj, a_eq=a_eq, b_eq=b_eq))
    if res.status == "infeasible":
        raise InfeasibleError("average-reward program infeasible")
    if res.status == "unbounded":
        raise NumericalFailure("average-reward program unbounded")
    return AvgLpSolution(x=res.x[:k], y=res.x[k:], gain=float(res.value))


def decode_avg_policy(m: Mdp, sol: AvgLpSolution,
                      support_threshold=SUPPORT_THRESHOLD) -> np.ndarray:
    """x-proportional on the occupation support, y-proportional elsewhere;
    mass at or below support_threshold counts as zero.  A state whose
    entries all lie at or below it keeps its first largest entry alone."""
    n = m.n_states
    use_x = np.bincount(m.pair_state, weights=sol.x, minlength=n) > \
        support_threshold
    use_y = np.bincount(m.pair_state, weights=sol.y, minlength=n) > \
        support_threshold
    vanish = np.flatnonzero(~use_x & ~use_y)
    if vanish.size:
        raise DegenerateDecoding(
            f"state {m.state_names[vanish[0]]}: x and y both vanish at the "
            f"support threshold {support_threshold:g}")
    row = np.where(use_x[m.pair_state], sol.x, sol.y)
    w = _normalized(m, row, _kept_pairs(m, row, np.ones(n, dtype=bool),
                                        support_threshold))
    w.flags.writeable = False
    return w
