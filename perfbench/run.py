"""End-to-end and per-layer benchmark of the effsynth pipeline.

    python3 perfbench/run.py --workload delivery_ladder --seed 1 \
        --seconds 45 --trace 0

Drives the program only from outside: set-up generates the workload's input
files, the timed part calls `effsynth.cli.main([...])` in-process on them,
and every output is checked against the committed reference file and an
independent evaluator, outside the timed region.  With `--trace 1` the
operations run with layer spans recorded, and the run reports per-layer
metrics instead of end-to-end ones.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  See README.md for the
workloads and metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("delivery_ladder", "multichain_batch")
# One BLAS thread, set before numpy loads.  With two OpenBLAS threads the
# dense simplex loses feasibility on grid 13 and falls back to its safe-mode
# retry, which is ten times slower (see README.md); one thread keeps the
# numerics, and so every output and timing, reproducible.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EPSILON = 0.01
# The CLI's default knobs as (module, global, flag, value), passed
# explicitly; cli._apply_knobs writes them into module globals, so the run
# checks after every call that they held.
KNOBS = (("lp", "SUPPORT_THRESHOLD", "--tol-support", 1e-9),
         ("synthesis", "BISECT_WIDTH", "--tol-bisect", 1e-6),
         ("synthesis", "K_MARGIN", "--k-margin", 1.0))
SIM_STEPS = 50000
SIM_ROLLOUTS = 2
# Machine-speed calibration.  On a shared host this process's speed drifts
# by up to ±25% in plateaus of seconds to tens of seconds, mostly in how fast
# it streams arrays that overflow the core's own cache, as the dense
# simplex's tableau does.  Between operations the run times a fixed
# calibration kernel of its own (numpy only, no program code) and scales
# each operation's time by CALIBRATION_REF_S over the faster of the two
# kernel samples around it (interruptions only ever slow a sample down): the
# timing metrics are seconds at the machine speed where the kernel takes
# CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.024
CALIBRATION_SHAPE = (400, 1500)   # 4.8 MB, beyond a 2 MB per-core L2
CALIBRATION_PIVOTS = 12
# Instances that set-up synthesizes once, with es, and whose policies every
# round replays (evaluate and simulate) instead of synthesizing them again.
# One es synthesis of grid 13 takes 10-15 s: timed in the rounds, it would be
# most of synth_es_s and be sampled once or twice a run.
SET_UP_SYNTH = {"delivery_ladder": ("grid13",)}
# Set-ups per run; delivery_ladder's includes that synthesis, so it sets up
# once.
SETUP_REPS = {"delivery_ladder": 1, "multichain_batch": 5}
REL_TOL = 1e-7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
FAILED = ("solver_error", "wrong")
KINDS = ("synth_es", "synth_ex", "evaluate", "simulate")


def tail_percentile(values):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    as (percentile, nearest-rank value), or None when there are too few
    samples for any."""
    xs = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(Fraction(str(p)) * len(xs) / 100)
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


class Op:
    """One CLI call and its outcome: ok, unsat, solver_error or wrong."""

    def __init__(self, kind, inst, argv, outputs, work=0):
        self.kind = kind
        self.inst = inst
        self.argv = argv
        self.outputs = outputs
        self.work = work        # simulated steps requested (simulate only)
        self.code = None
        self.seconds = None
        self.error = ""
        self.leak = None        # knob globals the call left changed
        self.traced = False
        self.outcome = None
        self.policy = None      # policy file written (synthesize) or read
        self.scale = None       # calibration factor for this call's time


class Calibration:
    """Times the pivot step of a dense simplex, a rank-1 update of the whole
    tableau, on a fixed array."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.base = np.random.default_rng(0).random(CALIBRATION_SHAPE)
        self.samples = []
        self.sample()
        self.samples.clear()    # that first sample also touched the pages
        self.sample()

    def sample(self):
        np = self.np
        start = time.perf_counter()
        tab = self.base.copy()
        for j in range(CALIBRATION_PIVOTS):
            tab -= np.outer(tab[:, j] / (tab[j, j] + 1.0), tab[j, :])
        self.samples.append(time.perf_counter() - start)

    def around(self, call):
        """Run `call` between two kernel samples and return its result and
        CALIBRATION_REF_S over the faster sample: below 1 when the machine
        ran slower than the reference speed."""
        before = self.samples[-1]
        result = call()
        self.sample()
        return result, CALIBRATION_REF_S / min(before, self.samples[-1])


class Bench:
    def __init__(self, workload, seed, seconds, trace, work_dir):
        import oracle
        import spans
        from effsynth import cli, lp, synthesis
        self.cli = cli
        self._modules = {"lp": lp, "synthesis": synthesis}
        self.oracle = oracle
        self.spans = spans
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.tracer = spans.Tracer() if trace else None
        self.calibration = Calibration()
        self.work_dir = work_dir
        with open(oracle.REFERENCE_FILE) as f:
            self.reference = json.load(f)
        self.ops = []            # every operation of the measured workload
        self.passes = {kind: [] for kind in KINDS}  # kind -> passes
        self.setup_s = []
        self.paired = [0.0, 0.0]  # untraced, traced seconds of paired calls
        self.pairs = 0
        self.rounds = 0
        self.instances = []      # (instance, input dir) after set-up
        self.replayed = []       # (instance, dir, policy) made in set-up
        self.paired_instance = None
        self.first_bytes = {}    # outputs of the first run of each call
        self.products = {}
        self.evaluations = {}

    # --- calling the program -------------------------------------------

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            error = err.getvalue().strip()
        except SystemExit as e:
            code, error = e.code, err.getvalue().strip()
        except Exception as e:  # an error escaped the CLI's exit codes
            code, error = None, f"{type(e).__name__}: {e}"
        return code, error, time.perf_counter() - start

    def run_op(self, op, traced=False):
        """Run one CLI call between two calibration samples and check the
        knob globals after it."""
        op.traced = traced
        (op.code, op.error, op.seconds), op.scale = \
            self.calibration.around(lambda: self._run(op, traced))
        for mod, attr, _, value in KNOBS:
            now = getattr(self._modules[mod], attr)
            if now != value:
                op.leak = f"the call left {mod}.{attr} = {now!r}"
                setattr(self._modules[mod], attr, value)
        self.ops.append(op)
        return op

    def _run(self, op, traced):
        """A traced call records layer spans; on the workload's first
        instance it also runs untraced, and those pairs give the tracing
        overhead."""
        if not traced:
            return self._call(op.argv)
        if op.inst.name != self.paired_instance:
            with self.tracer.installed():
                return self._call(op.argv)
        # alternate which of the pair runs first, so that warm-up and drift
        # do not always fall on the same side
        untraced_first = self.pairs % 2 == 0
        self.pairs += 1
        if untraced_first:
            self.paired[0] += self._call(op.argv)[2]
        with self.tracer.installed():
            result = self._call(op.argv)
        if not untraced_first:
            self.paired[0] += self._call(op.argv)[2]
        self.paired[1] += result[2]
        return result

    # --- building operations ---------------------------------------------

    def synth_op(self, inst, d, method):
        pol = os.path.join(d, f"{method}.policy")
        rep = os.path.join(d, f"{method}.report.json")
        argv = ["synthesize", *self._inputs(d), "--epsilon", str(EPSILON),
                "--method", method]
        for _, _, flag, value in KNOBS:
            argv += [flag, repr(value)]
        argv += ["--out", pol, "--report-out", rep]
        op = Op(f"synth_{method}", inst, argv, [pol, rep])
        op.policy = pol
        return op

    def evaluate_op(self, inst, d, policy):
        out = policy + ".evaluate.json"
        op = Op("evaluate", inst,
                ["evaluate", *self._inputs(d), policy, "--out", out], [out])
        op.policy = policy
        return op

    def simulate_op(self, inst, d, policy):
        out = policy + ".simulate.json"
        argv = ["simulate", *self._inputs(d), policy,
                "--steps", str(SIM_STEPS), "--rollouts", str(SIM_ROLLOUTS),
                "--seed", str(self.seed), "--out", out]
        op = Op("simulate", inst, argv, [out],
                work=SIM_STEPS * SIM_ROLLOUTS)
        op.policy = policy
        return op

    @staticmethod
    def _inputs(d):
        return [os.path.join(d, f)
                for f in ("model.mdp", "task.hoa", "utilities.txt")]

    # --- output checks (outside every timed region) ----------------------

    def check(self, op):
        try:
            op.outcome, detail = self._classify(op)
        except (OSError, ValueError, KeyError) as e:
            op.outcome, detail = "wrong", f"{type(e).__name__}: {e}"
        if detail:
            op.error = (op.error + " | " if op.error else "") + detail

    def _classify(self, op):
        if op.leak:
            return "wrong", op.leak
        if op.code == 4:
            return "solver_error", ""
        if op.code == 3:
            if op.kind.startswith("synth") and \
                    self.reference[op.inst.name] is None:
                return "unsat", ""
            return "wrong", "exit 3 but the reference finds the task " \
                            "satisfiable"
        if op.code != 0:
            return "wrong", f"exit code {op.code}"
        blobs = []
        for path in op.outputs:
            with open(path, "rb") as f:
                blobs.append(f.read())
        key = tuple(op.argv)
        if self.first_bytes.setdefault(key, blobs) != blobs:
            return "wrong", "output differs from the first run of this call"
        return self._check_payload(op, blobs)

    def _evaluation(self, inst, policy_text):
        key = (inst.name, policy_text)
        if key not in self.evaluations:
            if inst.name not in self.products:
                self.products[inst.name] = self.oracle.Product(inst)
            prod = self.products[inst.name]
            self.evaluations[key] = self.oracle.evaluate_policy(
                prod, self.oracle.parse_policy(prod, policy_text))
        return self.evaluations[key]

    def _check_payload(self, op, blobs):
        inst = op.inst
        if op.kind.startswith("synth"):
            ref = self.reference[inst.name]
            if ref is None:
                return "wrong", "synthesized although the reference finds " \
                                "the task unsatisfiable"
            report = json.loads(blobs[1])["report"]
            got = report["component_values"]
            if len(got) != len(ref) or not all(map(close, got, ref)):
                return "wrong", f"component values {got} != reference {ref}"
            if not report["certificate"]["accepted"]:
                return "wrong", "certificate not accepted"
            ev = self._evaluation(inst, blobs[0].decode())
            if not ev.accepted:
                return "wrong", "policy fails the Rabin condition"
            if abs(ev.efficiency - report["value"]) > EPSILON + REL_TOL:
                return "wrong", (f"policy efficiency {ev.efficiency} not "
                                 f"within epsilon of {report['value']}")
            return "ok", ""
        with open(op.policy) as f:
            ev = self._evaluation(inst, f.read())
        payload = json.loads(blobs[0])
        if op.kind == "evaluate":
            if not close(payload["efficiency"], ev.efficiency):
                return "wrong", (f"efficiency {payload['efficiency']} != "
                                 f"independent {ev.efficiency}")
            if payload["accepted_wp1"] is not True:
                return "wrong", "evaluate does not accept the policy"
            return "ok", ""
        lo, hi = min(ev.class_ratios), max(ev.class_ratios)
        slack = 0.1 * max(abs(lo), abs(hi))
        bad = [x for x in payload["ratios"]
               if not lo - slack <= x <= hi + slack]
        if len(payload["ratios"]) != SIM_ROLLOUTS or bad:
            return "wrong", (f"rollout ratios {payload['ratios']} outside "
                             f"the recurrent-class range [{lo}, {hi}]")
        return "ok", ""

    # --- workloads ---------------------------------------------------------

    def run(self):
        """Set up SETUP_REPS times, then measure for the run's seconds."""
        for rep in range(SETUP_REPS[self.workload]):
            self.set_up(rep)
        self.measure(self.seconds)

    def set_up(self, rep):
        """Generate and write the input files, and synthesize with es the
        instances of SET_UP_SYNTH, whose policies the rounds replay.  The
        set-up's time is calibrated like an operation's."""
        import instances
        root = os.path.join(self.work_dir, f"setup{rep}")
        names = SET_UP_SYNTH.get(self.workload, ())

        def generate():
            start = time.perf_counter()
            insts = instances.workload_instances(self.workload)
            written = [(inst, inst.write(root)) for inst in insts]
            synth = [self.run_op(self.synth_op(i, d, "es"))
                     for i, d in written if i.name in names]
            return written, synth, time.perf_counter() - start

        (written, synth, seconds), scale = self.calibration.around(generate)
        self.setup_s.append(seconds * scale)
        for op in synth:
            self.check(op)
        self.replayed = _succeeded(synth)
        self.instances = [(i, d) for i, d in written if i.name not in names]
        self.paired_instance = written[0][0].name

    def one_round(self):
        """One pass of every operation kind, interleaved per instance so
        that each kind's samples spread over the whole round.

        Each instance is synthesized with es and ex, and the policies just
        made are evaluated and simulated; each policy made in set-up is
        evaluated and simulated."""
        traced = self.tracer is not None
        done = {kind: [] for kind in KINDS}

        def run(op):
            self.run_op(op, traced)
            self.check(op)
            done[op.kind].append(op)
            return op

        def replay(policies):
            for inst, d, policy in policies:
                run(self.evaluate_op(inst, d, policy))
                run(self.simulate_op(inst, d, policy))

        order = [(inst, d, None) for inst, d in self.instances] + \
            list(self.replayed)
        self.rng.shuffle(order)
        for inst, d, policy in order:
            if policy is not None:
                replay([(inst, d, policy)])
            else:
                replay(_succeeded([run(self.synth_op(inst, d, method))
                                   for method in ("es", "ex")]))
        for kind, ops in done.items():
            if ops:
                self.passes[kind].append(ops)

    def measure(self, seconds):
        """Whole rounds, at least one, while the next is expected to end
        nearer to `seconds` than stopping now would."""
        start = time.perf_counter()
        rounds = []
        while True:
            t0 = time.perf_counter()
            self.one_round()
            rounds.append(time.perf_counter() - t0)
            self.rounds += 1
            if time.perf_counter() - start + statistics.median(rounds) / 2 \
                    > seconds:
                return

    # --- metrics ---------------------------------------------------------

    def pass_seconds(self, kind):
        """Calibrated seconds of each pass of one operation kind."""
        return [sum(op.seconds * op.scale for op in ops)
                for ops in self.passes[kind]]

    def end_to_end(self):
        sims = [sum(op.work for op in ops) / secs for ops, secs in
                zip(self.passes["simulate"], self.pass_seconds("simulate"))]
        good = sum(op.outcome not in FAILED for op in self.ops)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples = {
            "setup_s": (self.setup_s, "s"),
            "synth_es_s": (self.pass_seconds("synth_es"), "s"),
            "synth_ex_s": (self.pass_seconds("synth_ex"), "s"),
            "evaluate_s": (self.pass_seconds("evaluate"), "s"),
            "sim_steps_per_s": (sims, "steps/s"),
            "ok_share": ([good / len(self.ops)], "ratio"),
            "peak_rss_mb": ([rss_kb / 1024.0], "MB"),
        }
        return {name: (statistics.median(xs), unit, xs)
                for name, (xs, unit) in samples.items()}

    def per_layer(self):
        spans = self.tracer.spans
        selfs = self.spans.self_times(spans)
        n = self.rounds

        def total(name):
            return sum(s.duration for s in spans if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def layer_self(layer):
            return sum(t for s, t in zip(spans, selfs) if s.layer == layer)

        lp_calls = [s for s in spans if s.name == "lp.solve_lp"]
        builds = [s.meta for s in spans if s.name == "model.build_product"
                  and s.meta is not None]
        sim_spans = [s for s in spans
                     if s.name in ("sim.simulate", "sim.acceptance_visits")]
        sim_time = sum(s.duration for s in sim_spans)
        probes = sum(1 for s in spans if s.name == "chain.analyze"
                     and s.parent is not None and spans[s.parent].name
                     == "synthesis.perturbation_degree_exact")
        m = {
            "lp.solve_lp_s": (total("lp.solve_lp") / n, "s"),
            "lp.solve_lp_calls": (calls("lp.solve_lp") / n, "count"),
            "lp.solve_lp_errors": (sum(s.error is not None
                                       for s in lp_calls) / n, "count"),
            "lp.max_rows": (max((s.meta[0] for s in lp_calls), default=0),
                            "count"),
            "lp.max_cols": (max((s.meta[1] for s in lp_calls), default=0),
                            "count"),
            "lp.ratio_lfp_s": (total("lp.solve_ratio_lfp") / n, "s"),
            "lp.avg_reward_lp_s": (total("lp.solve_avg_reward_lp") / n,
                                   "s"),
            "chain.analyze_s": (total("chain.analyze") / n, "s"),
            "chain.analyze_calls": (calls("chain.analyze") / n, "count"),
            "model.induce_chain_s": (total("model.induce_chain") / n, "s"),
            "model.induce_chain_calls": (calls("model.induce_chain") / n,
                                         "count"),
            "model.build_product_s": (total("model.build_product") / n,
                                      "s"),
            "model.product_states": (sum(b[0] for b in builds) / n,
                                     "count"),
            "model.product_pairs": (sum(b[1] for b in builds) / n, "count"),
            "synthesis.bisect_probes": (probes / n, "count"),
            "synthesis.degree_exact_s": (
                total("synthesis.perturbation_degree_exact") / n, "s"),
            "synthesis.degree_estimated_s": (
                total("synthesis.perturbation_degree_estimated") / n, "s"),
            "graph.mec_decompose_calls": (calls("graph.mec_decompose") / n,
                                          "count"),
            "graph.almost_sure_region_s": (
                total("graph.almost_sure_region") / n, "s"),
            "sim.simulate_s": (total("sim.simulate") / n, "s"),
            "sim.acceptance_visits_s": (total("sim.acceptance_visits") / n,
                                        "s"),
            "sim.steps_per_s": (
                sum(s.meta for s in sim_spans) / sim_time if sim_time
                else 0.0, "steps/s"),
        }
        for layer in self.spans.LAYERS:
            m[f"{layer}.self_s"] = (layer_self(layer) / n, "s")
        untraced, traced = self.paired
        m["calibration.kernel_s"] = (
            statistics.median(self.calibration.samples), "s")
        m["trace.overhead_share"] = (traced / untraced - 1.0, "ratio")
        traced_total = sum(op.seconds for op in self.ops if op.traced)
        m["trace.span_cost_share"] = (
            len(spans) * self.spans.span_cost() / traced_total, "ratio")
        m["trace.unattributed_share"] = (1.0 - sum(selfs) / traced_total,
                                         "ratio")
        return m


def _succeeded(ops):
    """(instance, dir, policy file) of each synthesis that passed its
    checks."""
    return [(op.inst, os.path.dirname(op.policy), op.policy)
            for op in ops if op.outcome == "ok"]


def _tail_text(xs):
    tail = tail_percentile(xs)
    return f"p{tail[0]:g} {tail[1]:.6g}" if tail else \
        "no tail percentile (fewer than 20 samples)"


def report(bench, metrics, traced):
    """Human-readable lines, then the one-line JSON result."""
    w = sys.stdout.write
    w(f"workload {bench.workload}  seed {bench.seed}  "
      f"seconds {bench.seconds}  trace {int(traced)}\n")
    w("blas threads: " + " ".join(f"{v}={os.environ.get(v)}"
                                  for v in BLAS_ENV) + "\n")
    w("knobs: " + " ".join(f"{mod}.{attr}={value!r}"
                           for mod, attr, _, value in KNOBS) + "\n")
    samples = bench.calibration.samples
    w(f"calibration: kernel median {statistics.median(samples):.6f} s, "
      f"min {min(samples):.6f} s, max {max(samples):.6f} s, "
      f"n={len(samples)}\n")
    for op in bench.ops:
        w(f"op {op.kind:<9} {op.inst.name:<7} {op.outcome:<12} "
          f"{op.seconds:9.4f} s  x{op.scale:.4f}  {op.error}\n")
    attempted = len(bench.ops)
    failed = sum(op.outcome in FAILED for op in bench.ops)
    counts = {k: sum(op.outcome == k for op in bench.ops)
              for k in ("ok", "unsat", "solver_error", "wrong")}
    w(f"outcomes {counts}  fail_share {failed}/{attempted} = "
      f"{failed / attempted:.4f}\n")
    by_kind = {}
    for op in bench.ops:
        by_kind.setdefault(op.kind, []).append(op.seconds * op.scale)
    for kind, xs in sorted(by_kind.items()):
        w(f"per-op {kind:<9} calibrated median {statistics.median(xs):.4f} s  "
          f"{_tail_text(xs)}  n={len(xs)}\n")
    out = {}
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        line = f"metric {name:<30} {value:.6g} {unit}"
        if len(entry) > 2:
            line += f"  median of n={len(entry[2])}; {_tail_text(entry[2])}"
        w(line + "\n")
        out[name] = {"value": value, "unit": unit}
    correct = all(op.outcome != "wrong" for op in bench.ops)
    w(json.dumps({"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": out}) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.update({var: "1" for var in BLAS_ENV})
    if not os.path.isfile(os.path.join(SRC, "effsynth", "__init__.py")):
        print(f"error: no effsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, args.seconds,
                      bool(args.trace), work)
        bench.run()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        report(bench, metrics, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
