"""Policy synthesis: maximize long-run reward-to-cost efficiency while the
Rabin condition holds with probability one.

synth_general is the one entry point.  It decomposes the product once,
restricts it once to the almost-sure region and scores every accepting
component on the MAECs it contains.  That communicating stage
(_solve_maecs) solves the ratio program in each MAEC and blends the winning
one's optimal policy with an irreducible one.  The mixing weight (the
perturbation degree) is either the closed-form bound from the ratio
deviation of chain.ratio_deviation ('es') or the largest weight that stays
within epsilon of optimal ('ex'), found by Brent's method (scipy's brentq)
on the blend's stationary ratio and certified by the full chain analysis.
The component scores then become a surrogate reward with a steeply
negative off-component level; the average-reward program gives a basic
policy, and the component policies are patched back in wherever the basic
policy settles.  Policies, utilities and end components are arrays over a
model's pairs: a sub-model gathers them through its parent_pair, a
sub-model's policy lifts to its parent by a scatter through the same array
(_lift), and the region's report returns to the product's ids through
_lift_report.  A certificate (chain.certify) is built only for the report
that is returned.
"""

from dataclasses import dataclass, replace

import numpy as np

from .model import (Mdp, ModelError, ProductMdp, blend, induce_chain,
                    rabin_witness, uniform_policy)
from .graph import (almost_sure_region, amec_filter, attractor_policy,
                    closed_pairs, maec_decompose, mec_decompose, restrict,
                    within)
from .chain import (Certificate, NotUnichain, analyze, average_utility,
                    certify, efficiency, ratio_deviation,
                    stationary_distribution, utility_vector)
from .lp import SUPPORT_THRESHOLD, decode_avg_policy, decode_ratio_policy, \
    solve_avg_reward_lp, solve_ratio_lfp

BISECT_WIDTH = 1e-6
DELTA_CAP = 1.0 - 1e-9
K_MARGIN = 1.0


class ToleranceError(ValueError):
    """A Tolerances field outside its range; field names it."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class Tolerances:
    """Numeric knobs of one synthesis run, passed down as call data: the
    LP-decoding support threshold, in [0, 1); the width, in (0, 1), of the
    bracket that ends the exact-degree search; and the margin, above zero,
    of the surrogate off-component reward below -max|R|/min C, so that K
    lies strictly below every efficiency.  Each is a finite float."""
    support_threshold: float = SUPPORT_THRESHOLD
    bisect_width: float = BISECT_WIDTH
    k_margin: float = K_MARGIN

    def __post_init__(self):
        # NaN fails every comparison, and the bounds exclude infinity
        for field, bounds, ok in (
                ("support_threshold", "[0, 1)", lambda x: 0.0 <= x < 1.0),
                ("bisect_width", "(0, 1)", lambda x: 0.0 < x < 1.0),
                ("k_margin", "(0, inf)", lambda x: 0.0 < x < np.inf)):
            x = getattr(self, field)
            if not ok(x):
                raise ToleranceError(field, f"{field} must be finite and in "
                                            f"{bounds}, got {x!r}")


class TaskUnsatisfiable(Exception):
    """The initial state admits no almost-sure satisfying policy."""


@dataclass(frozen=True)
class PerturbationPlan:
    """How an optimal policy was blended with an irreducible one.

    method 'estimated' uses delta = epsilon * c_min / d_inf; 'exact' searches
    a bracket on the analytic efficiency for the largest degree within
    epsilon.  degenerate marks d_inf = 0 (the two policies are equivalent, so
    no perturbation loss exists and delta defaults to 0.5).
    """
    delta: float
    method: str
    d_inf: float
    c_min: float
    degenerate: bool = False


@dataclass(frozen=True)
class SynthesisReport:
    policy: np.ndarray  # weights over the product's pairs
    value: float
    epsilon: float
    amec_values: tuple
    amec_chosen: int | None
    plan: PerturbationPlan | None
    no_perturbation: bool
    certificate: Certificate  # None only until the returned report gets one
    avg_gain: float | None = None  # general case: surrogate-reward LP gain


def _deviation_gap(m, mu_opt, mu_irr, r, c):
    """d_inf = max |d_r - J d_c| and the optimal policy's efficiency J,
    shared by both degree rules."""
    _, j_opt, d = ratio_deviation(m, mu_opt, mu_irr, r, c)
    return float(np.max(np.abs(d))), j_opt


def perturbation_degree_estimated(m: Mdp, mu_opt, mu_irr, r, c,
                                  epsilon) -> PerturbationPlan:
    """Closed-form degree: delta = epsilon * c_min / d_inf, capped below one.

    Guarantees the blended policy loses at most epsilon of efficiency.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d_inf, _ = _deviation_gap(m, mu_opt, mu_irr, r, c)
    c_min = float(np.min(c))
    if d_inf <= 1e-14:
        return PerturbationPlan(0.5, "estimated", d_inf, c_min,
                                degenerate=True)
    delta = min(epsilon * c_min / d_inf, DELTA_CAP)
    return PerturbationPlan(delta, "estimated", d_inf, c_min)


def perturbation_degree_exact(m: Mdp, mu_opt, mu_irr, r, c, epsilon,
                              width=BISECT_WIDTH) -> PerturbationPlan:
    """Largest degree, to within width, that keeps the blended efficiency
    within epsilon of the optimum, certified by the full evaluator.

    Brent's method (scipy's brentq; Brent 1973, ch. 4) closes a bracket of
    f(delta) = J(delta) - (J - epsilon - 1e-12) to width, from the
    closed-form degree (which qualifies) to 1 - width.  For delta > 0 the
    blend with the irreducible mu_irr is irreducible, so a probe is one
    stationary solve of the whole blended chain, with the J(delta) that
    efficiency(analyze(...)) gives; f(0), the optimal policy's own, is
    known and never probed.  analyze and efficiency then check the largest
    probe with f >= 0, or 1 - width when the probe passes it, and
    NotUnichain is raised if no positive degree passes.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d_inf, j_opt = _deviation_gap(m, mu_opt, mu_irr, r, c)
    c_min = float(np.min(c))
    degenerate = d_inf <= 1e-14
    target = j_opt - epsilon - 1e-12

    def f(delta):
        w = blend(mu_opt, mu_irr, delta)
        pi = stationary_distribution(induce_chain(m, w))
        return float(pi @ utility_vector(m, r, w)) / \
            float(pi @ utility_vector(m, c, w)) - target

    def certified(delta):
        w = blend(mu_opt, mu_irr, delta)
        ca_d = analyze(m, w)
        return efficiency(ca_d, m, r, c, w, m.initial) >= target

    hi = 1.0 - width
    known = {0.0: j_opt - target, hi: f(hi)}  # 0: the optimal policy itself
    if known[hi] >= 0.0:
        if certified(hi):
            return PerturbationPlan(hi, "exact", d_inf, c_min, degenerate)
        known[hi] = -np.inf  # the certifying evaluation fell short
    lo = 0.0
    if not degenerate:
        guess = min(epsilon * c_min / d_inf, hi / 2)
        known[guess] = f(guess)
        if known[guess] >= 0.0:
            lo = guess
        else:  # rounding broke the closed-form guarantee
            hi = guess
    best = lo

    def probe(delta):
        nonlocal best
        f_x = known[delta] if delta in known else f(delta)
        if f_x >= 0.0 and delta > best:
            best = delta
        return f_x

    from scipy.optimize import brentq
    # disp=False: a search cut off at maxiter returns instead of raising
    brentq(probe, lo, hi, xtol=width, disp=False)
    if best <= 0.0 or not certified(best):
        raise NotUnichain("the degree search closed without a certified "
                          "positive degree")
    return PerturbationPlan(best, "exact", d_inf, c_min, degenerate)


def _lift(m: Mdp, sub_m: Mdp, ids, w, onto=None):
    """Policy w of sub_m (whose state i is state ids[i] of m) on m's pairs:
    onto (default: no rows) with the rows of ids replaced by w."""
    out = np.zeros(m.n_pairs) if onto is None else onto.copy()
    out[np.isin(m.pair_state, ids)] = 0.0
    out[sub_m.parent_pair] = w
    out.flags.writeable = False
    return out


def _lift_report(rep: SynthesisReport, m: Mdp, sub_m: Mdp,
                 ids) -> SynthesisReport:
    """A report on sub_m, cut out of m, on m's ids (sub-model state i is
    state ids[i] of m): its policy is lifted and its certificate's
    recurrent classes are re-keyed."""
    classes = tuple(tuple(ids[s] for s in comp)
                    for comp in rep.certificate.recurrent_classes)
    cert = replace(rep.certificate, recurrent_classes=classes)
    return replace(rep, policy=_lift(m, sub_m, ids, rep.policy),
                   certificate=cert)


def _check_args(m: Mdp, c, epsilon, method):
    """Reject a non-positive epsilon, an unknown method, and a cost vector
    over m's pairs with an entry at or below zero."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if method not in ("es", "ex"):
        raise ValueError("method must be 'es' or 'ex'")
    bad = np.flatnonzero(c <= 0.0)
    if bad.size:
        j = bad[0]
        raise ModelError(
            f"cost must be strictly positive, got {float(c[j])} at state "
            f"{m.state_names[m.pair_state[j]]}, action "
            f"{m.action_names[m.pair_action[j]]}")


def _solve_maecs(pm: ProductMdp, r, c, maecs, epsilon, method,
                 tol) -> SynthesisReport:
    """The MAEC stage: solve the ratio program in each of pm's MAECs (pair
    masks), keep the best, perturb its optimal policy if needed and extend
    it to all of pm by the attractor.  The report carries no certificate."""
    values = []
    subs = []
    for maec in maecs:
        sub_m, ids = restrict(pm, maec)
        r_sub, c_sub = r[sub_m.parent_pair], c[sub_m.parent_pair]
        sol = solve_ratio_lfp(sub_m, r_sub, c_sub)
        values.append(sol.value)
        decoded = decode_ratio_policy(sub_m, sol,
                                      support_threshold=tol.support_threshold)
        subs.append((sub_m, ids, r_sub, c_sub, *decoded))
    best = max(range(len(maecs)), key=lambda i: (values[i], -i))

    sub_m, ids, r_sub, c_sub, mu_opt, ca_opt = subs[best]

    # adopt the optimal policy unperturbed when its recurrent class already
    # meets some G-set while avoiding the paired B-set
    rec_global = {ids[s] for s in ca_opt.recurrent_classes[0]}
    no_pert = rabin_witness(rec_global, pm.acc_pairs) is not None
    plan = None
    if no_pert:
        mu_final_sub = mu_opt
    else:
        mu_irr = uniform_policy(sub_m)
        pair = (sub_m, mu_opt, mu_irr, r_sub, c_sub, epsilon)
        plan = (perturbation_degree_estimated(*pair) if method == "es" else
                perturbation_degree_exact(*pair, width=tol.bisect_width))
        mu_final_sub = blend(mu_opt, mu_irr, plan.delta)

    policy = attractor_policy(pm, ids, _lift(pm, sub_m, ids, mu_final_sub))
    return SynthesisReport(policy=policy, value=values[best], epsilon=epsilon,
                           amec_values=tuple(values), amec_chosen=best,
                           plan=plan, no_perturbation=no_pert,
                           certificate=None)


def build_reward_k(pm: ProductMdp, amecs, values, r, c, k_margin=K_MARGIN):
    """Surrogate reward over pm's pairs: the component's optimal value
    inside each accepting component, and K = -max|R|/min C - k_margin
    everywhere else.  Returns (reward vector, K)."""
    big_k = -float(np.max(np.abs(r))) / float(np.min(c)) - k_margin
    vals = np.full(pm.n_pairs, big_k)
    for amec, value in zip(amecs, values):
        vals[amec] = value
    return vals, big_k


def synth_general(pm: ProductMdp, r, c, epsilon: float, method: str = "es",
                  tol: Tolerances = Tolerances()) -> SynthesisReport:
    """Epsilon-optimal synthesis for arbitrary (multichain) models; r and c
    are value vectors over pm's pairs.

    The product is decomposed once.  States outside the almost-sure region
    are then dropped (they can never witness the acceptance condition with
    probability one; keeping them would plant non-accepting recurrent
    classes under any policy): the region is restricted once, and the
    utilities and the AMEC and MAEC masks are gathered onto it.  The
    returned policy is therefore defined exactly on the region.  Each
    accepting component is solved as a communicating instance on the MAECs
    it contains; the component values become a surrogate reward whose
    average-reward optimum decides where to settle; the component policies
    overwrite the basic policy wherever it is recurrent.
    """
    _check_args(pm, c, epsilon, method)
    maecs = maec_decompose(pm)
    amecs = amec_filter(mec_decompose(pm), maecs)
    if not amecs:
        raise TaskUnsatisfiable("no accepting end component")
    region = almost_sure_region(pm, amecs)
    if not region[pm.initial]:
        raise TaskUnsatisfiable(
            "initial state cannot satisfy the task with probability one")
    if region.all():
        return _synth_region(pm, r, c, amecs, maecs, epsilon, method, tol)
    # every region state owns a pair that stays inside the region, and the
    # end components lie inside it
    rm, rids = restrict(pm, closed_pairs(pm, region), pm.initial)
    pp = rm.parent_pair
    rep = _synth_region(rm, r[pp], c[pp], [a[pp] for a in amecs],
                        [a[pp] for a in maecs], epsilon, method, tol)
    return _lift_report(rep, pm, rm, rids)


def _synth_region(pm: ProductMdp, r, c, amecs, maecs, epsilon, method,
                  tol) -> SynthesisReport:
    """synth_general on a product that is its own almost-sure region, given
    its AMECs and MAECs."""
    if len(amecs) == 1 and amecs[0].all():
        # single accepting component keeping every pair: the basic-policy
        # stage cannot change anything, so the component solution on the
        # product itself is the answer
        rep = _solve_maecs(pm, r, c, maecs, epsilon, method, tol)
        cert = certify(analyze(pm, rep.policy), pm.acc_pairs, pm.initial)
        return replace(rep, amec_values=(rep.value,), amec_chosen=0,
                       certificate=cert)

    sub_reports = []
    for amec in amecs:
        sub_m, ids = restrict(pm, amec)
        pp = sub_m.parent_pair
        rep = _solve_maecs(sub_m, r[pp], c[pp],
                           [ma[pp] for ma in maecs if within(ma, amec)],
                           epsilon, method, tol)
        sub_reports.append((rep, sub_m, ids))
    values = [rep.value for rep, _, _ in sub_reports]

    rk, _ = build_reward_k(pm, amecs, values, r, c, k_margin=tol.k_margin)
    lp_sol = solve_avg_reward_lp(pm, rk)
    mu_k = decode_avg_policy(pm, lp_sol,
                             support_threshold=tol.support_threshold)
    ca_k = analyze(pm, mu_k)
    recurrent = np.zeros(pm.n_states, dtype=bool)
    recurrent[[s for comp in ca_k.recurrent_classes for s in comp]] = True
    claimed = average_utility(ca_k, pm, rk, mu_k, pm.initial)

    policy = mu_k
    kept = []
    for i, amec in enumerate(amecs):
        if (amec & recurrent[pm.pair_state]).any():
            rep, sub_m, ids = sub_reports[i]
            policy = _lift(pm, sub_m, ids, rep.policy, onto=policy)
            kept.append(i)
    cert = certify(analyze(pm, policy), pm.acc_pairs, pm.initial)
    kept_reports = [sub_reports[i][0] for i in kept]
    return SynthesisReport(policy=policy, value=float(claimed),
                           epsilon=epsilon, amec_values=tuple(values),
                           amec_chosen=kept[0] if len(kept) == 1 else None,
                           plan=(kept_reports[0].plan
                                 if len(kept_reports) == 1 else None),
                           no_perturbation=all(r.no_perturbation
                                               for r in kept_reports),
                           certificate=cert, avg_gain=lp_sol.gain)
