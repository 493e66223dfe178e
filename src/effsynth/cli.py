"""Command-line surface.

Subcommands: decompose, synthesize, evaluate, simulate, casestudy.  Outputs
are machine-readable JSON (schema effsynth/1) with a run manifest (input
hashes, version, seed, active numeric knobs).  Exit codes: 0 ok, 2 parse or
validation failure (an InputError; also argparse usage errors, and an input
that cannot be read or is not UTF-8), 3 task unsatisfiable
(TaskUnsatisfiable), 4 solver failure (a SolverError).

A call opens each input file once: its bytes are hashed for the manifest
and decoded for the parser.  The argument parser is built once per process;
main looks the subcommand's cmd_* function up by name on every call, so a
function rebound on this module (as a tracer does) is the one that runs.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .model import PROB_TOL, InputError, PolicyMismatch, SolverError, \
    build_product, lift_utilities, policy_domain
from . import casestudies, chain, graph, lp, parsers, sim, synthesis

EXIT_PARSE = 2
EXIT_UNSAT = 3
EXIT_SOLVER = 4


def _read(path, digests):
    """The text of an input file, opened once: its bytes are hashed into
    digests[path] for the manifest and decoded as UTF-8.  A file that cannot
    be read or decoded is a parse error that names it."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise parsers.ParseError(
            f"cannot read {path}: {e.strerror or e}") from e
    digests[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise parsers.ParseError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def _manifest(args, digests, tol=synthesis.Tolerances()):
    knobs = {"prob_tol": PROB_TOL, **dataclasses.asdict(tol)}
    return {
        "version": __version__,
        "inputs": digests,
        "seed": getattr(args, "seed", None),
        "knobs": knobs,
    }


def _lp_manifest():
    """synthesize's LP solver: HiGHS's dual simplex by scipy's method name,
    its options and the version of scipy, whose HiGHS bindings the solve
    has already imported."""
    import scipy
    return {"method": lp.HIGHS_METHOD, "options": lp.HIGHS_OPTIONS,
            "scipy": scipy.__version__}


def _write(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _load_problem(args, digests):
    m = parsers.parse_mdp(_read(args.mdp, digests))
    d = parsers.parse_dra(_read(args.dra, digests))
    pm = build_product(m, d)
    return m, d, pm


def _load_utilities(args, m, pm, digests):
    reward, cost = parsers.parse_utilities(_read(args.rewards, digests), m)
    if reward is None or cost is None:
        raise parsers.ParseError("utility file must define reward and cost")
    return lift_utilities(pm, reward, cost)


def _ec_json(m, ec):
    """An end component's pair mask as its states and, per state, its
    actions (pairs ascend by state, then action)."""
    actions = {}
    for j in np.flatnonzero(ec).tolist():
        actions.setdefault(m.state_names[m.pair_state[j]], []).append(
            m.action_names[m.pair_action[j]])
    return {"states": list(actions), "actions": actions}


def cmd_decompose(args):
    digests = {}
    m, d, pm = _load_problem(args, digests)
    mecs = graph.mec_decompose(pm)
    maecs = graph.maec_decompose(pm)
    amecs = graph.amec_filter(mecs, maecs)
    region = graph.almost_sure_region(pm, amecs)
    payload = {
        "schema": "effsynth/1",
        "mecs": [_ec_json(pm, ec) for ec in mecs],
        "maecs": [_ec_json(pm, ec) for ec in maecs],
        "amecs": [_ec_json(pm, ec) for ec in amecs],
        "almost_sure_region": [pm.state_names[s]
                               for s in np.flatnonzero(region)],
        "initial_in_region": bool(region[pm.initial]),
        "manifest": _manifest(args, digests),
    }
    _emit(payload, args.out)
    if not amecs:
        print("task unsatisfiable: no accepting end component", file=sys.stderr)
        return EXIT_UNSAT
    return 0


def _report_json(pm, report):
    cert = report.certificate
    return {
        "value": report.value,
        "epsilon": report.epsilon,
        "component_values": list(report.amec_values),
        "component_chosen": report.amec_chosen,
        "no_perturbation": report.no_perturbation,
        "delta": report.plan.delta if report.plan else 0.0,
        "method": report.plan.method if report.plan else None,
        "d_inf": report.plan.d_inf if report.plan else None,
        "c_min": report.plan.c_min if report.plan else None,
        "avg_gain": report.avg_gain,
        "certificate": {
            "recurrent_classes": [[pm.state_names[s] for s in comp]
                                  for comp in cert.recurrent_classes],
            "witness_pairs": list(cert.witness_pairs),
            "absorption_defect": cert.absorption_defect,
            "accepted": cert.accepted,
        },
    }


# synthesize's tolerance flags, by the Tolerances field each sets
TOL_FLAGS = {"support_threshold": "--tol-support",
             "bisect_width": "--tol-bisect", "k_margin": "--k-margin"}


def cmd_synthesize(args):
    try:
        tol = synthesis.Tolerances(support_threshold=args.tol_support,
                                   bisect_width=args.tol_bisect,
                                   k_margin=args.k_margin)
    except synthesis.ToleranceError as e:
        print(f"error: argument {TOL_FLAGS[e.field]}: {e}", file=sys.stderr)
        return EXIT_PARSE
    digests = {}
    m, d, pm = _load_problem(args, digests)
    r, c = _load_utilities(args, m, pm, digests)
    report = synthesis.synth_general(pm, r, c, args.epsilon, args.method, tol)
    if args.out:
        _write(parsers.write_policy(pm, report.policy, report), args.out)
    payload = {"schema": "effsynth/1",
               "report": _report_json(pm, report),
               "policy_file": args.out,
               "manifest": {**_manifest(args, digests, tol),
                            "lp": _lp_manifest()}}
    _emit(payload, args.report_out)
    return 0


def _policy_scope(pm, policy, r, c):
    """Restrict the product, the policy and the utilities to the policy's
    domain, which is the whole product unless the policy is partial
    (synthesis defines it on the almost-sure region only).  The domain must
    contain the initial state and be closed under the policy's support."""
    dom = policy_domain(pm, policy)
    if not dom[pm.initial]:
        raise PolicyMismatch("policy does not cover the initial state")
    closed = graph.closed_pairs(pm, dom)
    leaving = pm.pair_state[(policy > 0.0) & ~closed]
    if leaving.size:
        raise PolicyMismatch(
            f"policy leaves its own domain at {pm.state_names[leaving[0]]}")
    # every domain state has a policy pair, and none of them leaves
    sub_pm, _ = graph.restrict(pm, closed, pm.initial)
    pp = sub_pm.parent_pair
    return sub_pm, policy[pp], r[pp], c[pp]


def _load_scoped_policy(args, digests):
    """The product, utilities and policy of an evaluate or simulate call,
    restricted to the policy's domain."""
    m, d, pm = _load_problem(args, digests)
    r, c = _load_utilities(args, m, pm, digests)
    policy = parsers.parse_policy(_read(args.policy, digests), pm)
    return _policy_scope(pm, policy, r, c)


def cmd_evaluate(args):
    digests = {}
    pm, policy, r, c = _load_scoped_policy(args, digests)
    ca = chain.analyze(pm, policy)
    cert = chain.certify(ca, pm.acc_pairs, pm.initial)
    eff = chain.efficiency(ca, pm, r, c, policy, pm.initial)
    classes = []
    sat_mass = 0.0
    for comp, witness, mass in zip(cert.recurrent_classes, cert.witness_pairs,
                                   ca.absorb[pm.initial].tolist()):
        if witness is not None:
            sat_mass += mass
        classes.append({"states": [pm.state_names[s] for s in comp],
                        "witness_pair": witness, "mass_from_initial": mass})
    payload = {"schema": "effsynth/1",
               "efficiency": eff,
               "recurrent_classes": classes,
               "satisfaction_probability": sat_mass,
               "accepted_wp1": cert.accepted,
               "manifest": _manifest(args, digests)}
    _emit(payload, args.out)
    return 0


def cmd_simulate(args):
    digests = {}
    pm, policy, r, c = _load_scoped_policy(args, digests)
    cfg = sim.RolloutConfig(steps=args.steps, rollouts=args.rollouts,
                            seed=args.seed)
    stats = sim.simulate(pm, policy, r, c, cfg)
    if args.csv:
        lines = ["rollout,ratio"]
        for i, ratio in enumerate(stats.ratios):
            lines.append(f"{i},{ratio:.12g}")
        lines.append(f"mean,{stats.mean_ratio:.12g}")
        lines.append(f"stderr,{stats.stderr:.12g}")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    counts = np.array(stats.visit_counts)
    payload = {"schema": "effsynth/1",
               "mean_ratio": stats.mean_ratio,
               "stderr": stats.stderr,
               "ratios": list(stats.ratios),
               "label_freq": stats.label_freq,
               "acceptance_visits": [
                   {"pair": k, "g_visits": int(counts[g].sum()),
                    "b_visits": int(counts[b].sum())}
                   for k, (b, g) in enumerate(pm.acc_pairs)],
               "manifest": _manifest(args, digests)}
    _emit(payload, args.out)
    return 0


# The JSON types a --params field may take, by the type of its default: a
# tuple or set is written as a list, a float may be written as an integer,
# and a field whose default is None (case 1's item_prob) takes an object.
# A list or object holds numbers, or (a set of cells) lists of numbers.
_JSON_TYPES = {int: (int,), float: (int, float), tuple: (list,),
               frozenset: (list,), dict: (dict,), type(None): (dict, type(None))}


def _finite(literal, kind=float):
    """A JSON number literal as kind, refused unless finite as a float."""
    if not np.isfinite(float(literal)):
        raise ValueError(f"{literal} is not a finite number")
    return kind(literal)


def _case_params(path, name, digests):
    """The --params file as the case's validated parameter dataclass.  A
    file that is not a JSON object of finite numbers, an unknown field, a
    value whose JSON type does not fit its field, a cell key that is not
    "row,col" and a failed validation are errors naming the file."""
    cls = casestudies.Case1Params if name == "case1" \
        else casestudies.Case2Params
    try:
        raw = json.loads(_read(path, digests), parse_float=_finite,
                         parse_constant=_finite,
                         parse_int=lambda literal: _finite(literal, int))
    except (ValueError, RecursionError) as e:
        raise parsers.ParseError(f"{path}: not JSON ({e})") from e
    if not isinstance(raw, dict):
        raise parsers.ParseError(f"{path}: not a JSON object")
    defaults = dataclasses.asdict(cls())
    for key, value in raw.items():
        if key not in defaults:
            raise parsers.ParseError(f"{path}: unknown {name} field {key!r}")
        entries = (value.values() if type(value) is dict else
                   value if type(value) is list else ())
        scalars = [y for x in entries
                   for y in (x if type(x) is list else (x,))]
        if type(value) not in _JSON_TYPES[type(defaults[key])] or \
                any(type(y) not in (int, float) for y in scalars):
            raise parsers.ParseError(f"{path}: field {key!r} has the wrong "
                                     f"type ({json.dumps(value)[:40]})")
    try:
        if name == "case1":
            for key in ("item_prob", "destinations"):  # "row,col" keys
                if raw.get(key) is not None:
                    raw[key] = {tuple(map(int, k.split(","))): v
                                for k, v in raw[key].items()}
            if "obstacles" in raw:
                raw["obstacles"] = frozenset(tuple(x) for x in raw["obstacles"])
            if "cost_table" in raw:
                raw["cost_table"] = {int(k): v
                                     for k, v in raw["cost_table"].items()}
        for key, value in raw.items():
            if type(value) is list:
                raw[key] = tuple(value)
    except (TypeError, ValueError) as e:
        raise parsers.ParseError(f"{path}: bad {name} parameters ({e})") from e
    params = cls(**raw)
    try:
        params.validate()
    except casestudies.ParamError as e:
        raise casestudies.ParamError(f"{path}: {e}") from None
    return params


def cmd_casestudy(args):
    digests = {}
    params = (_case_params(args.params, args.name, digests)
              if args.params else None)
    built = (casestudies.gen_case1 if args.name == "case1"
             else casestudies.gen_case2)(params)
    if args.name == "case1":
        m, d1, d2, reward, cost = built
        files = {"model.mdp": parsers.write_mdp(m),
                 "task1.hoa": parsers.write_dra(d1),
                 "task2.hoa": parsers.write_dra(d2),
                 "utilities.txt": parsers.write_utilities(m, reward, cost),
                 "perturbation_tables.csv": _case1_tables(m, d2, reward,
                                                          cost)}
    else:
        m, d, reward_family, cost = built
        files = {"model.mdp": parsers.write_mdp(m),
                 "task.hoa": parsers.write_dra(d),
                 "utilities_bonus0.txt": parsers.write_utilities(
                     m, reward_family(0.0), cost),
                 "bonus_sweep.csv": _case2_sweep(m, d, reward_family, cost,
                                                 args)}
    # made only now, so that a rejected input leaves no directory behind
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in files.items():
        _write(text, os.path.join(args.out_dir, name))
    _emit({"schema": "effsynth/1", "generated": list(files),
           "manifest": _manifest(args, digests)}, None)
    return 0


def _case1_tables(m, dra, reward, cost):
    """ES/EX perturbation degree and charging-cell limit probability per
    threshold, in the shape of the source tables."""
    pm = build_product(m, dra)
    r, c = lift_utilities(pm, reward, cost)
    thresholds = [0.005, 0.01, 0.05, 0.1]
    rows = {"es": [], "ex": []}
    limits = {"es": [], "ex": []}
    charge_states = [i for i, lab in enumerate(pm.labels) if "c" in lab]
    for method in ("es", "ex"):
        for eps in thresholds:
            rep = synthesis.synth_general(pm, r, c, eps, method)
            delta = rep.plan.delta if rep.plan else 0.0
            ca = chain.analyze(pm, rep.policy)
            limit = chain.limit_distribution(ca)
            rows[method].append(delta)
            limits[method].append(float(limit[charge_states].sum()))
    out = ["table,threshold," + ",".join(str(t) for t in thresholds)]
    out.append("delta,es," + ",".join(f"{x:.6g}" for x in rows["es"]))
    out.append("delta,ex," + ",".join(f"{x:.6g}" for x in rows["ex"]))
    out.append("charge_limit,es," + ",".join(f"{x:.6g}" for x in limits["es"]))
    out.append("charge_limit,ex," + ",".join(f"{x:.6g}" for x in limits["ex"]))
    return "\n".join(out) + "\n"


def _case2_sweep(m, dra, reward_family, cost, args):
    """Optimal unconstrained efficiency when sweeping the pickup bonus, and
    whether the optimal loop is the accepting one."""
    out = ["bonus,value,accepting_loop"]
    c = cost.pair_values(m)
    for bonus in args.bonus_grid:
        sol = lp.solve_ratio_lfp(m, reward_family(bonus).pair_values(m), c)
        policy, ca = lp.decode_ratio_policy(m, sol)
        rec = set(ca.recurrent_classes[0])
        labs = set()
        for s in rec:
            labs |= m.labels[s]
        accepting = "g" in labs and "r" in labs
        out.append(f"{bonus:.6g},{sol.value:.10g},{int(accepting)}")
    return "\n".join(out) + "\n"


def _positive_float(text):
    val = float(text)
    if not 0.0 < val < np.inf:
        raise argparse.ArgumentTypeError(
            "must be finite and strictly positive")
    return val


def _positive_int(text):
    val = int(text)
    if val <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return val


def make_parser():
    top = argparse.ArgumentParser(
        prog="effsynth",
        description="Efficiency-optimal policy synthesis under Rabin "
                    "acceptance constraints")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print MECs, MAECs, AMECs, region")
    p.add_argument("mdp")
    p.add_argument("dra")
    p.add_argument("--out")

    p = sub.add_parser("synthesize", help="full synthesis pipeline")
    p.add_argument("mdp")
    p.add_argument("dra")
    p.add_argument("rewards")
    p.add_argument("--epsilon", type=_positive_float, required=True)
    p.add_argument("--method", choices=("es", "ex"), default="es")
    p.add_argument("--out", help="policy file destination")
    p.add_argument("--report-out", help="JSON report destination")
    p.add_argument("--tol-support", type=float, default=lp.SUPPORT_THRESHOLD)
    p.add_argument("--tol-bisect", type=float, default=synthesis.BISECT_WIDTH,
                   help="width, in (0, 1), at which the exact ('ex') degree "
                        "search stops")
    p.add_argument("--k-margin", type=float, default=synthesis.K_MARGIN)

    p = sub.add_parser("evaluate", help="analytic efficiency and acceptance")
    p.add_argument("mdp")
    p.add_argument("dra")
    p.add_argument("rewards")
    p.add_argument("policy")
    p.add_argument("--out")

    p = sub.add_parser("simulate", help="Monte-Carlo rollout statistics")
    p.add_argument("mdp")
    p.add_argument("dra")
    p.add_argument("rewards")
    p.add_argument("policy")
    p.add_argument("--steps", type=_positive_int, default=100000)
    p.add_argument("--rollouts", type=_positive_int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("casestudy", help="generate benchmark instances")
    p.add_argument("name", choices=("case1", "case2"))
    p.add_argument("--params", help="JSON parameter file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bonus-grid", type=float, nargs="+",
                   default=[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 80.0])
    return top


@functools.cache
def _argument_parser():
    """make_parser(), built once per process; parsing leaves it unchanged."""
    return make_parser()


def main(argv=None):
    args = _argument_parser().parse_args(argv)
    # looked up at call time, so that a rebound cmd_* function is the one run
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except synthesis.TaskUnsatisfiable as e:
        print(f"task unsatisfiable: {e}", file=sys.stderr)
        return EXIT_UNSAT
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
