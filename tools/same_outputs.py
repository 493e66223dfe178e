"""Write every CLI output of one source tree on the benchmark instances.

    python3 tools/same_outputs.py <src-tree> <out-dir>

<src-tree> is a checkout of this repository (its `src/` holds the effsynth
package and its `perfbench/instances.py` the instance generators, which this
script only imports).  Every instance of both benchmark workloads is written
to a fixed input directory, and that tree's `effsynth.cli.main` runs
`decompose`, `synthesize` with es and ex, and, for each policy synthesis
wrote, `evaluate` and `simulate` (JSON and `--csv`).  Then `casestudy case1`
and `casestudy case2` run with default parameters, each into its own fixed
directory (their perturbation tables and bonus sweep decode policies outside
`synthesize`).  A fixed corpus of malformed inputs follows: copies of the
grid-9 and `mc00` inputs with one line corrupted per directive kind of the
model, utility, policy and automaton formats (MALFORMED), each run through
`evaluate`, so that the parsers' error texts and exit codes are compared
too; its last three cases pin where the automaton format's bounds lie (a
gap on a symbol no state carries, 21 APs, a conjunction of start states).
A fixed verdict corpus (VERDICTS) then runs through `evaluate`:
small chains whose acceptance hinges on an edge or a leak of probability
below 1e-9, or on which classes the initial state reaches, so that the
verdicts are compared as well.  Inputs and outputs
sit at the same paths for every tree, so the run manifests agree; each
call's output files, standard output, standard error and exit code are
copied into <out-dir>.  Last, each of the tree's `demos/*.py` scripts runs
in a subprocess with that tree's `src` on the path, and its exit code,
standard output and standard error are written to <out-dir>/demos.  Two
trees give the same outputs exactly when

    diff -r <out-dir-1> <out-dir-2>

is empty.  Each tree runs in its own process, so run the script once per
tree.  Where they differ,

    python3 tools/same_outputs.py --compare <out-dir-1> <out-dir-2>

lists each file that differs.  When only numbers moved (the two texts
agree once every decimal is set aside, and hold as many), it gives the
largest relative move |a - b| / max(|a|, |b|) of a number; otherwise it
prints the lines that differ verbatim.  It exits 0 when the trees are
the same and 1 when not.
"""

import contextlib
import difflib
import glob
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("delivery_ladder", "multichain_batch")
CASES = ("case1", "case2")
SIM_ARGS = ["--steps", "20000", "--rollouts", "2", "--seed", "7"]
WORK = os.path.join(tempfile.gettempdir(), "effsynth_same_outputs")


def _nudge(line):
    """The line with its last token, a decimal, raised by 1e-6."""
    head, value = line.rsplit(" ", 1)
    return f"{head} {float(value) + 1e-6!r}"


# (case, instance, input file, first line of it that starts with this
# prefix, the line that replaces it); each case corrupts one line.
MALFORMED = (
    ("model_header", "grid9", "model.mdp", "mdp", lambda l: "mdpx"),
    ("model_states", "grid9", "model.mdp", "states:",
     lambda l: l + " " + l.split()[1]),
    ("model_actions", "grid9", "model.mdp", "actions:",
     lambda l: l + " left"),
    ("model_props", "grid9", "model.mdp", "props:", lambda l: l + " d"),
    ("model_initial", "grid9", "model.mdp", "initial:",
     lambda l: "initial: nowhere"),
    ("model_label", "grid9", "model.mdp", "label", lambda l: l + " zz"),
    ("model_trans_decimal", "grid9", "model.mdp", "trans",
     lambda l: l.rsplit(" ", 1)[0] + " 1_0"),
    ("model_trans_action", "mc00", "model.mdp", "trans",
     lambda l: l.replace(" ring ", " fly ")),
    ("model_trans_arity", "mc00", "model.mdp", "trans",
     lambda l: l.rsplit(" ", 1)[0]),
    ("model_trans_duplicate", "mc00", "model.mdp", "trans",
     lambda l: l + "\n" + l),
    ("model_trans_row_sum", "mc00", "model.mdp", "trans", _nudge),
    ("utility_reward_state", "grid9", "utilities.txt", "reward",
     lambda l: l.replace(" r1c1_0 ", " r0c0_0 ")),
    ("utility_reward_missing", "grid9", "utilities.txt", "reward",
     lambda l: "# " + l),
    ("utility_cost_decimal", "mc00", "utilities.txt", "cost",
     lambda l: l.rsplit(" ", 1)[0] + " inf"),
    ("utility_cost_zero", "mc00", "utilities.txt", "cost",
     lambda l: l.rsplit(" ", 1)[0] + " 0"),
    ("utility_cost_duplicate", "mc00", "utilities.txt", "cost",
     lambda l: l + "\n" + l),
    ("policy_rule_action", "grid9", "es.policy", "rule",
     lambda l: l.replace(" down ", " dive ")),
    ("policy_rule_decimal", "grid9", "es.policy", "rule",
     lambda l: l.rsplit(" ", 1)[0] + " nan"),
    ("policy_rule_duplicate", "grid9", "es.policy", "rule",
     lambda l: l + "\n" + l),
    ("policy_rule_mass", "grid9", "es.policy", "rule", _nudge),
    ("policy_directive", "grid9", "es.policy", "rule",
     lambda l: l.replace("rule", "rules", 1)),
    ("hoa_states", "grid9", "task.hoa", "States:", lambda l: "States: 9"),
    ("hoa_ap", "grid9", "task.hoa", "AP:", lambda l: 'AP: 4 "d" "b" "c"'),
    ("hoa_ap_repeat", "grid9", "task.hoa", "AP:",
     lambda l: 'AP: 3 "d" "d" "c"'),
    ("hoa_acceptance", "mc00", "task.hoa", "Acceptance:",
     lambda l: "Acceptance: 2 Inf(1)"),
    ("hoa_state_sets", "mc00", "task.hoa", "State:",
     lambda l: "State: 0 {7}"),
    ("hoa_body_line", "mc00", "task.hoa", "State:", lambda l: "Stat: 0"),
    ("hoa_guard_overlap", "grid9", "task.hoa", "[", lambda l: "[t] 1"),
    ("hoa_guard_gap", "grid9", "task.hoa", "[", lambda l: "[f] 1"),
    ("hoa_guard_syntax", "mc00", "task.hoa", "[", lambda l: "[0 &] 1"),
    ("hoa_guard_ap_index", "mc00", "task.hoa", "[",
     lambda l: l.replace("!0", "!7")),
    # accepted: no grid-9 state is labelled b alone, so a gap there is
    # never read, and the AP: count has no bound
    ("hoa_gap_unused_symbol", "grid9", "task.hoa", "[!0 & 1 & !2] 4",
     lambda l: "[f] 4"),
    ("hoa_ap_21", "grid9", "task.hoa", "AP:",
     lambda l: l.replace("AP: 3", "AP: 21") +
     "".join(f' "x{i}"' for i in range(18))),
    ("hoa_start_conjunction", "grid9", "task.hoa", "Start:",
     lambda l: "Start: 0 & 1"),
)


# Fin(b) & Inf(g) over AP g, b: state 0 marks b, state 1 marks g, state 2
# neither; all three move on b to 0, on g alone to 1, and otherwise to 2.
FIN_B_INF_G = ("HOA: v1\nStates: 3\nStart: 2\nAP: 2 \"g\" \"b\"\n"
               "Acceptance: 2 Fin(0) & Inf(1)\n--BODY--\n" +
               "".join(f"State: {q}{sets}\n[1] 0\n[!1 & 0] 1\n[!1 & !0] 2\n"
                       for q, sets in ((0, " {0}"), (1, " {1}"), (2, ""))) +
               "--END--\n")

# (case, model, policy), each evaluated under FIN_B_INF_G with the model as
# its own utility file: an irreducible chain with an edge of 1e-13 into b,
# and a leak of 1e-11 into an absorbing b, both failing the task; then an
# absorbing b that the policy never reaches from the initial g, which
# passes, and one reached only through the transient t, which fails.
VERDICTS = (
    ("edge_1e-13",
     "mdp\nstates: g b\nactions: a\nprops: g b\ninitial: g\n"
     "label g: g\nlabel b: b\ntrans g a g 0.9999999999999\n"
     "trans g a b 0.0000000000001\ntrans b a g 1\nreward g a 1\n"
     "reward b a 1\ncost g a 1\ncost b a 1\n",
     "rule b&q0 a 1\nrule g&q1 a 1\n"),
    ("leak_1e-11",
     "mdp\nstates: s g b\nactions: a\nprops: g b\ninitial: s\n"
     "label g: g\nlabel b: b\ntrans s a g 0.99999999999\n"
     "trans s a b 0.00000000001\ntrans g a g 1\ntrans b a b 1\n" +
     "".join(f"{kind} {s} a 1\n" for kind in ("reward", "cost")
             for s in "sgb"),
     "rule s&q2 a 1\nrule g&q1 a 1\nrule b&q0 a 1\n"),
    ("unreached_b",
     "mdp\nstates: g b\nactions: a c\nprops: g b\ninitial: g\n"
     "label g: g\nlabel b: b\ntrans g a g 1\ntrans g c b 1\n"
     "trans b a b 1\n" +
     "".join(f"{kind} {p} 1\n" for kind in ("reward", "cost")
             for p in ("g a", "g c", "b a")),
     "rule g&q1 a 1\nrule b&q0 a 1\n"),
    ("b_via_transient",
     "mdp\nstates: s t g b\nactions: a\nprops: g b\ninitial: s\n"
     "label g: g\nlabel b: b\ntrans s a g 0.5\ntrans s a t 0.5\n"
     "trans t a b 1\ntrans g a g 1\ntrans b a b 1\n" +
     "".join(f"{kind} {s} a 1\n" for kind in ("reward", "cost")
             for s in "stgb"),
     "rule s&q2 a 1\nrule t&q2 a 1\nrule g&q1 a 1\nrule b&q0 a 1\n"),
)


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _calls(d):
    """(call name, argv, output files) of one instance, in run order; the
    evaluate and simulate calls read the policy that synthesize wrote."""
    inputs = [os.path.join(d, f)
              for f in ("model.mdp", "task.hoa", "utilities.txt")]
    yield "decompose", ["decompose", *inputs[:2], "--out",
                        os.path.join(d, "decompose.json")]
    for method in ("es", "ex"):
        pol = os.path.join(d, f"{method}.policy")
        yield f"synth_{method}", [
            "synthesize", *inputs, "--epsilon", "0.01", "--method", method,
            "--out", pol, "--report-out",
            os.path.join(d, f"{method}.report.json")]
        if not os.path.exists(pol):
            continue
        yield f"evaluate_{method}", [
            "evaluate", *inputs, pol, "--out",
            os.path.join(d, f"{method}.evaluate.json")]
        yield f"simulate_{method}", [
            "simulate", *inputs, pol, *SIM_ARGS, "--out",
            os.path.join(d, f"{method}.simulate.json")]
        yield f"simulate_csv_{method}", [
            "simulate", *inputs, pol, *SIM_ARGS, "--csv", "--out",
            os.path.join(d, f"{method}.simulate.csv")]


def _record(cli, name, call, d, dest):
    """Run one CLI call and copy the files it added to d, and its console,
    into dest."""
    before = set(os.listdir(d))
    code, out, err = _run(cli, call)
    with open(os.path.join(dest, f"{name}.console"), "w") as f:
        f.write(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    for fname in sorted(set(os.listdir(d)) - before):
        shutil.copy(os.path.join(d, fname), os.path.join(dest, fname))
    print(f"{os.path.basename(dest)} {name}: exit {code}", flush=True)


def _record_malformed(cli, dest):
    """Run evaluate on each MALFORMED case, built from the inputs in WORK,
    and record its console in dest."""
    for case, inst, fname, prefix, corrupt in MALFORMED:
        d = os.path.join(WORK, "malformed", case)
        os.makedirs(d)
        files = ("model.mdp", "task.hoa", "utilities.txt", "es.policy")
        for f in files:
            src = os.path.join(WORK, inst, f)
            text = open(src).read() if os.path.exists(src) else ""
            if f == fname:
                lines = text.split("\n")
                i = next(i for i, l in enumerate(lines)
                         if l.startswith(prefix))
                lines[i] = corrupt(lines[i])
                text = "\n".join(lines)
            with open(os.path.join(d, f), "w") as out:
                out.write(text)
        out = os.path.join(d, f"{case}.evaluate.json")
        _record(cli, case, ["evaluate", *(os.path.join(d, f) for f in files),
                            "--out", out], d, dest)


def _record_verdicts(cli, dest):
    """Run evaluate on each VERDICTS case, written under WORK, and record
    its output and console in dest."""
    for case, model, policy in VERDICTS:
        d = os.path.join(WORK, "verdicts", case)
        os.makedirs(d)
        files = {"model.mdp": model, "task.hoa": FIN_B_INF_G,
                 "policy.txt": policy}
        for f, text in files.items():
            with open(os.path.join(d, f), "w") as out:
                out.write(text)
        model_path, task_path, policy_path = (os.path.join(d, f)
                                              for f in files)
        _record(cli, case, ["evaluate", model_path, task_path, model_path,
                            policy_path, "--out",
                            os.path.join(d, f"{case}.evaluate.json")],
                d, dest)


def _record_demos(tree, dest):
    """Run every demo script of tree with its src on the path, and write
    each one's exit code and console into dest."""
    os.makedirs(dest, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for script in sorted(glob.glob(os.path.join(tree, "demos", "*.py"))):
        name = os.path.basename(script)
        proc = subprocess.run([sys.executable, script], cwd=tree, env=env,
                              capture_output=True, text=True)
        with open(os.path.join(dest, f"{name}.console"), "w") as f:
            f.write(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"
                    f"--- stderr\n{proc.stderr}")
        print(f"demos {name}: exit {proc.returncode}", flush=True)


# a decimal that is not part of a name such as r1c1_0
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"(?![\w.])")


def _read(path):
    with open(path) as f:
        return f.read()


def _numeric_move(a, b):
    """The largest relative move between the numbers of texts a and b when
    nothing else differs, else None."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    xs, ys = ([float(t) for t in NUMBER.findall(text)] for text in (a, b))
    if len(xs) != len(ys):
        return None
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(xs, ys)
                if x != y), default=0.0)


def compare(dir_a, dir_b):
    """Report every file that differs between two output directories; 0
    when none does, else 1."""
    files = set()
    for d in (dir_a, dir_b):
        for root, _, names in os.walk(d):
            files.update(os.path.relpath(os.path.join(root, n), d)
                         for n in names)
    differ = 0
    for rel in sorted(files):
        paths = [os.path.join(d, rel) for d in (dir_a, dir_b)]
        if not all(os.path.exists(p) for p in paths):
            print(f"{rel}: only in "
                  f"{dir_a if os.path.exists(paths[0]) else dir_b}")
            differ += 1
            continue
        a, b = (_read(p) for p in paths)
        if a == b:
            continue
        differ += 1
        move = _numeric_move(a, b)
        if move is not None:
            print(f"{rel}: numbers only, largest relative move {move:.3g}")
            continue
        print(f"{rel}: differs")
        sys.stdout.writelines(
            line + "\n" for line in difflib.unified_diff(
                a.splitlines(), b.splitlines(), paths[0], paths[1],
                lineterm="", n=0))
    print(f"{differ} of {len(files)} files differ")
    return 1 if differ else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, out_dir = (os.path.abspath(p) for p in argv)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # before numpy loads, as the benchmark does
    import instances
    from effsynth import cli

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS:
        for inst in instances.workload_instances(workload):
            d = inst.write(WORK)
            dest = os.path.join(out_dir, inst.name)
            os.makedirs(dest, exist_ok=True)
            for name, call in _calls(d):
                _record(cli, name, call, d, dest)
    for case in CASES:
        d = os.path.join(WORK, case)
        dest = os.path.join(out_dir, case)
        os.makedirs(d)
        os.makedirs(dest, exist_ok=True)
        _record(cli, "casestudy", ["casestudy", case, "--out-dir", d], d, dest)
    dest = os.path.join(out_dir, "malformed")
    os.makedirs(dest, exist_ok=True)
    _record_malformed(cli, dest)
    dest = os.path.join(out_dir, "verdicts")
    os.makedirs(dest, exist_ok=True)
    _record_verdicts(cli, dest)
    shutil.rmtree(WORK, ignore_errors=True)
    _record_demos(tree, os.path.join(out_dir, "demos"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
