import json
import os
import subprocess
import sys

import numpy as np
import pytest

import effsynth
from effsynth.cli import main

from conftest import delivery_grid, settled_probes

MODEL = """\
mdp
states: 1 2 3 4
actions: a1 a2
props: g
initial: 1
label 4: g
trans 1 a1 2 1.0
trans 1 a2 3 1.0
trans 2 a1 2 1.0
trans 3 a1 4 1.0
trans 4 a1 3 1.0
trans 4 a2 4 1.0
"""

INF_OFTEN_G = """\
HOA: v1
States: 2
Start: 0
AP: 1 "g"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {1}
[!0] 0
[0] 1
--END--
"""

ALWAYS_G_IMPOSSIBLE = """\
HOA: v1
States: 2
Start: 0
AP: 1 "g"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[0] 0
[!0] 1
State: 1 {0}
[t] 1
--END--
"""

UTILITIES = "\n".join(
    [f"reward {s} {a} {r}" for s, a, r in
     [("1", "a1", 0.0), ("1", "a2", 0.0), ("2", "a1", 1.0),
      ("3", "a1", 0.5), ("4", "a1", 2.0), ("4", "a2", 3.0)]] +
    [f"cost {s} {a} 1.0" for s, a in
     [("1", "a1"), ("1", "a2"), ("2", "a1"),
      ("3", "a1"), ("4", "a1"), ("4", "a2")]]) + "\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("model.mdp", MODEL), ("task.hoa", INF_OFTEN_G),
                       ("bad.hoa", ALWAYS_G_IMPOSSIBLE),
                       ("utilities.txt", UTILITIES)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_decompose_matches_known_structure(files, capsys):
    code = main(["decompose", files["model.mdp"], files["task.hoa"]])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    mec_state_sets = [sorted(ec["states"]) for ec in payload["mecs"]]
    assert sorted(map(tuple, mec_state_sets)) == [("2&q0",), ("3&q0", "4&q1")]
    # the pair has an empty avoid-set, so the whole right MEC is accepting
    assert payload["maecs"] == [{"states": ["3&q0", "4&q1"],
                                 "actions": {"3&q0": ["a1"],
                                             "4&q1": ["a1", "a2"]}}]
    assert [sorted(ec["states"]) for ec in payload["amecs"]] == \
        [["3&q0", "4&q1"]]
    assert payload["initial_in_region"] is True
    assert "2&q0" not in payload["almost_sure_region"]
    assert "manifest" in payload and payload["manifest"]["inputs"]


def test_decompose_exit_unsat_when_no_amec(files, capsys):
    code = main(["decompose", files["model.mdp"], files["bad.hoa"]])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["amecs"] == []


def test_decompose_exit_parse_error(files, tmp_path, capsys):
    broken = tmp_path / "broken.mdp"
    broken.write_text("states: x\n")
    assert main(["decompose", str(broken), files["task.hoa"]]) == 2


def test_synthesize_value_matches_lfp(files, capsys):
    out = str(files["dir"] / "policy.txt")
    report_out = str(files["dir"] / "report.json")
    code = main(["synthesize", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], "--epsilon", "0.01",
                 "--out", out, "--report-out", report_out])
    assert code == 0
    payload = json.loads(open(report_out).read())
    # best loop: stay at 4 under a2 (ratio 3), kept accepting without blending
    assert payload["report"]["value"] == pytest.approx(3.0, abs=1e-8)
    assert payload["report"]["no_perturbation"] is True
    assert payload["report"]["certificate"]["accepted"] is True
    assert open(out).read().startswith("# policy")
    import scipy
    assert payload["manifest"]["lp"] == {
        "method": "highs-ds",
        "options": {"presolve": False, "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10},
        "scipy": scipy.__version__}


@pytest.mark.parametrize("status", [1, 4])
def test_synthesize_exits_4_on_non_optimal_highs_status(files, monkeypatch,
                                                        capsys, status):
    """A HiGHS model status other than optimal, infeasible or unbounded
    (here kLoadError and kSolveError) fails the synthesis fast: exit 4 and
    one line naming the status."""
    from scipy.optimize._highspy._core import HighsModelStatus
    answer = (HighsModelStatus(status), "HiGHS gave up.", None)
    monkeypatch.setattr(effsynth.lp, "_highs", lambda a, b, c: answer)
    code = main(["synthesize", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], "--epsilon", "0.01"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"solver failure: HiGHS status {status}: HiGHS gave up.\n"


def write_grid_inputs(tmp_path, n):
    """The model, task-2 automaton and utility files of delivery_grid(n)
    in tmp_path; returns their paths."""
    from effsynth import parsers
    m, task2, reward, cost = delivery_grid(n)
    paths = []
    for name, text in (("model.mdp", parsers.write_mdp(m)),
                       ("task.hoa", parsers.write_dra(task2)),
                       ("utilities.txt",
                        parsers.write_utilities(m, reward, cost))):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    return paths


@pytest.mark.parametrize("method", ["es", "ex"])
def test_synthesize_reruns_are_byte_identical(tmp_path, method):
    """Two in-process synthesize runs on the case-1 grid-9 task-2 inputs
    write byte-identical policy and report files."""
    paths = write_grid_inputs(tmp_path, 9)
    policy, report = tmp_path / "policy.txt", tmp_path / "report.json"
    runs = []
    for _ in range(2):
        assert main(["synthesize", *paths, "--epsilon", "0.01",
                     "--method", method, "--out", str(policy),
                     "--report-out", str(report)]) == 0
        runs.append((policy.read_bytes(), report.read_bytes()))
    assert runs[0] == runs[1]


def test_synthesize_unsat_exit(files):
    assert main(["synthesize", files["model.mdp"], files["bad.hoa"],
                 files["utilities.txt"], "--epsilon", "0.01"]) == 3


def test_synthesize_rejects_zero_epsilon(files):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", files["model.mdp"], files["task.hoa"],
              files["utilities.txt"], "--epsilon", "0"])
    assert exc.value.code == 2


def test_es_and_ex_agree_on_value_and_dominance(files, tmp_path):
    # a rewarding self-loop at 3 never sees g, so the optimum must be blended
    model = tmp_path / "loop.mdp"
    model.write_text(MODEL + "trans 3 a2 3 1.0\n")
    util = tmp_path / "loop.txt"
    util.write_text(UTILITIES + "reward 3 a2 5.0\ncost 3 a2 1.0\n")
    reports = {}
    for method in ("es", "ex"):
        report_out = str(tmp_path / f"rep_{method}.json")
        code = main(["synthesize", str(model), files["task.hoa"],
                     str(util), "--epsilon", "0.05", "--method", method,
                     "--report-out", report_out])
        assert code == 0
        reports[method] = json.loads(open(report_out).read())["report"]
    assert reports["es"]["value"] == pytest.approx(reports["ex"]["value"],
                                                   abs=1e-8)
    assert reports["es"]["no_perturbation"] is False
    assert reports["es"]["delta"] > 0.0
    assert reports["ex"]["delta"] >= reports["es"]["delta"]


def test_evaluate_synthesized_policy(files, capsys):
    out = str(files["dir"] / "policy.txt")
    main(["synthesize", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], "--epsilon", "0.01", "--out", out])
    capsys.readouterr()
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], out])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted_wp1"] is True
    assert payload["efficiency"] == pytest.approx(3.0, abs=1e-8)


def test_evaluate_detects_unsatisfying_policy(files, tmp_path, capsys):
    # deterministic policy that parks in the non-accepting loop at state 2
    pol = tmp_path / "bad_policy.txt"
    pol.write_text("rule 1&q0 a1 1\nrule 2&q0 a1 1\nrule 3&q0 a1 1\n"
                   "rule 4&q1 a2 1\n")
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], str(pol)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted_wp1"] is False
    assert payload["satisfaction_probability"] == pytest.approx(0.0)


def test_evaluate_ignores_a_class_the_initial_state_cannot_reach(
        files, tmp_path, capsys):
    """The policy is defined on the non-accepting loop at state 2 as well,
    but from state 1 it moves into the accepting 3-4 cycle: the loop is a
    recurrent class of the chain that the initial state never reaches."""
    pol = tmp_path / "policy.txt"
    pol.write_text("rule 1&q0 a2 1\nrule 2&q0 a1 1\nrule 3&q0 a1 1\n"
                   "rule 4&q1 a1 1\n")
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], str(pol)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(c["states"], c["witness_pair"])
            for c in payload["recurrent_classes"]] == [
        (["2&q0"], None), (["3&q0", "4&q1"], 0)]
    assert payload["accepted_wp1"] is True


# Fin(b) & Inf(g) over AP g, b: state 0 marks b, state 1 marks g, state 2
# neither; all three move on b to 0, on g alone to 1, and otherwise to 2.
FIN_B_INF_G = """\
HOA: v1
States: 3
Start: 2
AP: 2 "g" "b"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
""" + "".join(f"State: {q}{sets}\n[1] 0\n[!1 & 0] 1\n[!1 & !0] 2\n"
              for q, sets in ((0, " {0}"), (1, " {1}"), (2, ""))) + \
    "--END--\n"


# (model, policy): g -> b with probability 1e-13, b -> g with 1; the model
# file also lists the utilities.
EDGE_1E13 = ("\n".join([
    "mdp", "states: g b", "actions: a", "props: g b", "initial: g",
    "label g: g", "label b: b",
    "trans g a g 0.9999999999999", "trans g a b 0.0000000000001",
    "trans b a g 1", "reward g a 1", "reward b a 1", "cost g a 1",
    "cost b a 1"]) + "\n", "rule b&q0 a 1\nrule g&q1 a 1\n")


def evaluate_fin_b_inf_g(tmp_path, capsys, model, policy):
    """The payload of evaluate on model (which also serves as its own
    utility file) under FIN_B_INF_G with the given policy-file text."""
    paths = []
    for name, text in (("model.mdp", model), ("task.hoa", FIN_B_INF_G),
                       ("policy.txt", policy)):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    code = main(["evaluate", paths[0], paths[1], paths[0], paths[2]])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_evaluate_keeps_an_edge_of_probability_1e13(tmp_path, capsys):
    """g -> b with probability 1e-13 and b -> g with 1: the chain is
    irreducible, so b recurs almost surely and the task fails with
    probability one.  Any threshold on P at or above 1e-13 would drop the
    edge and call g closed."""
    payload = evaluate_fin_b_inf_g(tmp_path, capsys, *EDGE_1E13)
    assert payload["recurrent_classes"] == [
        {"states": ["g&q1", "b&q0"], "witness_pair": None,
         "mass_from_initial": 1.0}]
    assert payload["satisfaction_probability"] == 0.0
    assert payload["accepted_wp1"] is False


def test_evaluate_rejects_a_leak_of_probability_1e11(tmp_path, capsys):
    """s moves to the absorbing g with 1 - 1e-11 and to the absorbing b
    with 1e-11: b's class is reached and has no witness, so the task fails
    with positive probability, however small, though the satisfaction
    probability is within 1e-9 of one."""
    model = "\n".join([
        "mdp", "states: s g b", "actions: a", "props: g b", "initial: s",
        "label g: g", "label b: b",
        "trans s a g 0.99999999999", "trans s a b 0.00000000001",
        "trans g a g 1", "trans b a b 1"] +
        [f"{kind} {s} a 1" for kind in ("reward", "cost") for s in "sgb"]) \
        + "\n"
    payload = evaluate_fin_b_inf_g(
        tmp_path, capsys, model,
        "rule s&q2 a 1\nrule g&q1 a 1\nrule b&q0 a 1\n")
    assert payload["recurrent_classes"] == [
        {"states": ["g&q1"], "witness_pair": 0,
         "mass_from_initial": 0.99999999999},
        {"states": ["b&q0"], "witness_pair": None,
         "mass_from_initial": 1e-11}]
    assert payload["satisfaction_probability"] == 0.99999999999
    assert payload["accepted_wp1"] is False


def test_evaluate_admits_rows_off_one_within_the_validation_tolerance(
        tmp_path, capsys):
    """A model row off 1 by 0.9e-9 and a policy row off 1 by 0.8e-9 each
    pass validation, and their chain's row at s sums to 1 + 1.7e-9: evaluate
    admits it and accepts, since every state is accepting."""
    model = "\n".join([
        "mdp", "states: s t", "actions: a b", "props: g", "initial: s",
        "label s: g", "trans s a s 0.5000000009", "trans s a t 0.5",
        "trans s b t 1", "trans t a s 1"] +
        [f"{kind} {s} 1" for kind in ("reward", "cost")
         for s in ("s a", "s b", "t a")]) + "\n"
    task = ("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"g\"\n"
            "Acceptance: 2 Fin(0) & Inf(1)\n--BODY--\nState: 0 {1}\n"
            "[t] 0\n--END--\n")
    policy = ("rule s&q0 a 0.9999999991\nrule s&q0 b 0.0000000017\n"
              "rule t&q0 a 1\n")
    paths = []
    for name, text in (("model.mdp", model), ("task.hoa", task),
                       ("policy.txt", policy)):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    assert main(["evaluate", paths[0], paths[1], paths[0], paths[2]]) == 0
    assert json.loads(capsys.readouterr().out)["accepted_wp1"] is True


# One accepting automaton state: every run satisfies Fin(0) & Inf(1).
ALWAYS_ACCEPT = ("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"g\"\n"
                 "Acceptance: 2 Fin(0) & Inf(1)\n--BODY--\nState: 0 {1}\n"
                 "[t] 0\n--END--\n")


@pytest.mark.parametrize("rows, policy, message", [
    (["trans s a t 0.5000000009", "trans s a u 0.5000000009",
      "trans s a s -0.0000000009"],
     "rule s&q0 a 1.0000000008\n",
     "1 violation(s), first: prob_range (P(0|0,0)=-9e-10)"),
    (["trans s a t 0.5", "trans s a u 0.5", "trans s b t 1"],
     "rule s&q0 a 1.0000000009\nrule s&q0 b -0.0000000009\n",
     "state s&q0: probability -9e-10 out of range")],
    ids=["model", "policy"])
def test_negative_probability_is_a_validation_error(tmp_path, capsys, rows,
                                                    policy, message):
    """A negative entry, however small, fails validation with exit 2 and
    one line naming it; the row sums are within 1e-9 of 1.  Kept, the
    model's entry would leave positive mass 1 + 1.8e-9 in the row, which
    the chain dropped with the negative entry."""
    trans = rows + ["trans t a s 1", "trans u a s 1"]
    pairs = dict.fromkeys(" ".join(row.split()[1:3]) for row in trans)
    model = "\n".join([
        "mdp", "states: s t u", "actions: a b", "props: g", "initial: s",
        "label s: g", *trans] + [f"{kind} {pair} 1" for kind in
                                 ("reward", "cost") for pair in pairs]) + "\n"
    paths = []
    for name, text in (("model.mdp", model), ("task.hoa", ALWAYS_ACCEPT),
                       ("policy.txt", policy + "rule t&q0 a 1\n"
                                               "rule u&q0 a 1\n")):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    assert main(["evaluate", paths[0], paths[1], paths[0], paths[2]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_rejects_mismatched_policy(files, tmp_path):
    pol = tmp_path / "mismatch.txt"
    pol.write_text("rule nosuch a1 1\n")
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], str(pol)])
    assert code == 2


def test_evaluate_rejects_policy_without_initial_state(files, tmp_path,
                                                      capsys):
    pol = tmp_path / "no_initial.txt"
    pol.write_text("rule 3&q0 a1 1\nrule 4&q1 a2 1\n")
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], str(pol)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: policy does not cover the initial state\n"


def test_evaluate_rejects_partial_policy_leaving_its_domain(files, tmp_path,
                                                            capsys):
    # a1 at the initial state moves to 2&q0, which the policy leaves out
    pol = tmp_path / "leaky.txt"
    pol.write_text("rule 1&q0 a1 1\nrule 3&q0 a1 1\nrule 4&q1 a2 1\n")
    code = main(["evaluate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], str(pol)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: policy leaves its own domain at 1&q0\n"


def test_simulate_csv_bytes_are_stable(files, tmp_path, capsys):
    out = str(files["dir"] / "policy.txt")
    main(["synthesize", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], "--epsilon", "0.01", "--out", out])
    capsys.readouterr()
    texts = []
    for _ in range(2):
        code = main(["simulate", files["model.mdp"], files["task.hoa"],
                     files["utilities.txt"], out, "--steps", "2000",
                     "--rollouts", "3", "--seed", "42", "--csv"])
        assert code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("rollout,ratio")


def test_simulate_matches_evaluate(files, tmp_path, capsys):
    out = str(files["dir"] / "policy.txt")
    main(["synthesize", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], "--epsilon", "0.01", "--out", out])
    capsys.readouterr()
    main(["evaluate", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], out])
    eff = json.loads(capsys.readouterr().out)["efficiency"]
    main(["simulate", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], out, "--steps", "50000",
          "--rollouts", "4", "--seed", "1"])
    stats = json.loads(capsys.readouterr().out)
    band = max(3 * stats["stderr"], 1e-3)
    assert abs(stats["mean_ratio"] - eff) <= band


def test_simulate_draws_each_rollout_once(files, monkeypatch, capsys):
    """One pass of rollouts yields both the ratios and the acceptance
    visits, which are the G/B totals of the per-state visit counts."""
    from effsynth import sim
    out = str(files["dir"] / "policy.txt")
    main(["synthesize", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], "--epsilon", "0.01", "--out", out])
    capsys.readouterr()
    rollouts = []
    runs = []
    one_rollout, simulate = sim._one_rollout, sim.simulate

    def counted_rollout(*args):
        rollouts.append(args)
        return one_rollout(*args)

    def kept_simulate(m, *args):
        runs.append((m, simulate(m, *args)))
        return runs[-1][1]

    monkeypatch.setattr(sim, "_one_rollout", counted_rollout)
    monkeypatch.setattr(sim, "simulate", kept_simulate)
    code = main(["simulate", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], out, "--steps", "500",
                 "--rollouts", "3", "--seed", "9"])
    assert code == 0
    assert len(rollouts) == 3
    payload = json.loads(capsys.readouterr().out)
    ((pm, stats),) = runs
    counts = stats.visit_counts
    assert sum(counts) == 500 * 3
    assert payload["acceptance_visits"] == [
        {"pair": k, "g_visits": sum(counts[s] for s in g),
         "b_visits": sum(counts[s] for s in b)}
        for k, (b, g) in enumerate(pm.acc_pairs)]
    assert payload["acceptance_visits"][0]["g_visits"] > 0


def test_decompose_decomposes_once(tmp_path, monkeypatch, capsys):
    """A one-pair decompose on case-1 grid 9 runs one MEC decomposition and
    one MAEC decomposition (one mec_decompose call per Rabin pair), and the
    AMEC filter reuses both."""
    from effsynth import casestudies, graph, parsers
    m, _, task2, _, _ = casestudies.gen_case1()
    mdp, hoa = tmp_path / "model.mdp", tmp_path / "task.hoa"
    mdp.write_text(parsers.write_mdp(m))
    hoa.write_text(parsers.write_dra(task2))
    calls = []
    mec_decompose = graph.mec_decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return mec_decompose(*args, **kwargs)

    monkeypatch.setattr(graph, "mec_decompose", counted)
    assert main(["decompose", str(mdp), str(hoa)]) == 0
    assert json.loads(capsys.readouterr().out)["amecs"]
    assert len(calls) == 2


def test_simulate_rejects_zero_rollouts(files):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", files["model.mdp"], files["task.hoa"],
              files["utilities.txt"], files["model.mdp"],
              "--rollouts", "0"])
    assert exc.value.code == 2


def test_casestudy_case2_generates_files(tmp_path, capsys):
    out_dir = tmp_path / "cs2"
    code = main(["casestudy", "case2", "--out-dir", str(out_dir),
                 "--bonus-grid", "0", "40", "80"])
    assert code == 0
    for name in ("model.mdp", "task.hoa", "utilities_bonus0.txt",
                 "bonus_sweep.csv"):
        assert (out_dir / name).exists()
    sweep = (out_dir / "bonus_sweep.csv").read_text().splitlines()
    assert sweep[0] == "bonus,value,accepting_loop"
    flags = [line.split(",")[2] for line in sweep[1:]]
    assert flags == ["0", "1", "1"]


def test_casestudy_case2_custom_params_deterministic(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"ring_reward":
                                  {"outer": 0.3, "middle": 1.0,
                                   "inner": 0.2}}))
    outs = []
    for i in range(2):
        out_dir = tmp_path / f"cs2_{i}"
        code = main(["casestudy", "case2", "--params", str(params),
                     "--out-dir", str(out_dir), "--bonus-grid", "0", "50"])
        assert code == 0
        outs.append((out_dir / "model.mdp").read_text() +
                    (out_dir / "bonus_sweep.csv").read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n, method", [(15, "es"), (15, "ex"), (17, "es")])
def test_synthesize_delivery_ladder_rung(tmp_path, capsys, n, method):
    """Case-1 task-2 grids past 13, with the destinations and the charging
    cell at the scaled corners and 1.0 per move beyond the default cost
    table, synthesize to the grid-9 value."""
    paths = write_grid_inputs(tmp_path, n)
    code = main(["synthesize", *paths, "--epsilon", "0.01",
                 "--method", method])
    assert code == 0
    values = json.loads(capsys.readouterr().out)["report"]["component_values"]
    assert values == [pytest.approx(0.1171506882895, abs=1e-9)]


def test_casestudy_case1_small_grid(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "size": 5, "obstacles": [], "initial": [1, 1],
        "destinations": {"5,1": 2.0, "1,5": 1.0}, "charging": [4, 1]}))
    out_dir = tmp_path / "cs1"
    code = main(["casestudy", "case1", "--params", str(params),
                 "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("model.mdp", "task1.hoa", "task2.hoa", "utilities.txt",
                 "perturbation_tables.csv"):
        assert (out_dir / name).exists()
    table = (out_dir / "perturbation_tables.csv").read_text().splitlines()
    assert table[0].startswith("table,threshold")
    es = [float(x) for x in table[1].split(",")[2:]]
    ex = [float(x) for x in table[2].split(",")[2:]]
    assert all(b >= a for a, b in zip(es, ex))
    charge_es = [float(x) for x in table[3].split(",")[2:]]
    assert all(x > 0 for x in charge_es)
    # the generated files feed back through the standard pipeline
    code = main(["decompose", str(out_dir / "model.mdp"),
                 str(out_dir / "task1.hoa"), "--out",
                 str(tmp_path / "dec.json")])
    assert code == 0


def test_casestudy_rejects_bad_params(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"cell_cost": -1.0}))
    code = main(["casestudy", "case2", "--params", str(params),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("name, text, phrase", [
    ("case2", "{bad json", "not JSON"),
    ("case2", "[" * 100000, "not JSON"),
    ("case2", json.dumps({"size": "seven"}), "field 'size' has the wrong type"),
    ("case2", json.dumps({"colour": 1}), "unknown case2 field 'colour'"),
    ("case2", json.dumps({"ring_reward": {"outer": "x"}}),
     "field 'ring_reward' has the wrong type"),
    ("case2", json.dumps({"ring_reward": {"outer": 0.3}}),
     "ring_reward lacks ['inner', 'middle']"),
    ("case1", json.dumps({"size": "nine"}), "field 'size' has the wrong type"),
    ("case1", json.dumps({"initial": ["a", "b"]}),
     "field 'initial' has the wrong type"),
    ("case1", json.dumps({"destinations": {"9;1": 2.0}}),
     "bad case1 parameters"),
    ("case1", json.dumps({"size": 200000}), "size 200000 is not an int"),
    ("case1", json.dumps({"initial": [0, 1]}),
     "initial cell (0, 1) is off the 9x9 grid"),
    ("case2", json.dumps({"material": [8, 7]}),
     "material cell (8, 7) is off the 7x7 grid"),
    ("case1", json.dumps({"item_prob": {"1,1": 0.5}}),
     "item_prob lacks cell (1, 2)"),
    ("case1", json.dumps({"destinations": {}}), "no destination cell"),
    ("case1", json.dumps({"item_prob": {"1,1": 2}}),
     "item probability 2 at (1, 1) out of [0,1]"),
    ("case1", json.dumps({"cost_table": {}}), "cost table lacks distance 8"),
    ("case2", '{"cell_cost": NaN}', "NaN is not a finite number"),
    ("case1", '{"destinations": {"9,1": 1e999, "1,9": 1.0}}',
     "1e999 is not a finite number"),
], ids=["case2-not-json", "case2-deep-json", "case2-wrong-type",
        "case2-unknown-field", "case2-wrong-entry-type", "case2-missing-ring",
        "case1-wrong-type", "case1-wrong-entry-type", "case1-bad-cell-key",
        "case1-huge-size", "case1-off-grid", "case2-off-grid",
        "case1-partial-item-field", "case1-no-destination",
        "case1-item-prob-above-one", "case1-empty-cost-table",
        "case2-nan", "case1-infinite-number"])
def test_casestudy_bad_params_file_exits_2(tmp_path, capsys, name, text,
                                           phrase):
    """A --params file that is not JSON, holds a number that is not
    finite, names an unknown field, gives a field the wrong type or fails
    validation is a one-line error naming the file."""
    params = tmp_path / "params.json"
    params.write_text(text)
    code = main(["casestudy", name, "--params", str(params),
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(params) in err and phrase in err


@pytest.mark.parametrize("guard", ["!" * 3000 + "0",
                                   "(" * 3000 + "0" + ")" * 3000],
                         ids=["negations", "parentheses"])
def test_deeply_nested_guard_is_a_parse_error(files, tmp_path, capsys,
                                              guard):
    """A guard nested past the interpreter's recursion limit is a parse
    error at its line, not a RecursionError."""
    lines = INF_OFTEN_G.splitlines()
    assert lines[8] == "[0] 1"
    lines[8] = f"[{guard}] 1"
    hoa = tmp_path / "deep.hoa"
    hoa.write_text("\n".join(lines) + "\n")
    assert main(["decompose", files["model.mdp"], str(hoa)]) == 2
    assert "line 9: guard nested too deeply" in capsys.readouterr().err


def blended_synthesis(files, tmp_path):
    """synthesize argv, up to its options, for a model whose optimum must
    be blended: a rewarding self-loop at 3 never sees g."""
    model = tmp_path / "loop.mdp"
    model.write_text(MODEL + "trans 3 a2 3 1.0\n")
    util = tmp_path / "loop.txt"
    util.write_text(UTILITIES + "reward 3 a2 5.0\ncost 3 a2 1.0\n")
    return ["synthesize", str(model), files["task.hoa"], str(util)]


def test_tolerance_flags_are_per_call(files, tmp_path):
    """The tolerance flags reach the synthesis through the call, are
    recorded in the manifest, and leave the module defaults untouched."""
    from effsynth import lp, synthesis
    base = blended_synthesis(files, tmp_path) + [
        "--epsilon", "0.05", "--method", "ex", "--report-out"]
    tuned = str(tmp_path / "tuned.json")
    assert main(base + [tuned, "--tol-support", "1e-6", "--tol-bisect", "1e-3",
                        "--k-margin", "2"]) == 0
    assert (lp.SUPPORT_THRESHOLD, synthesis.BISECT_WIDTH,
            synthesis.K_MARGIN) == (1e-9, 1e-6, 1.0)
    payload = json.loads(open(tuned).read())
    assert payload["manifest"]["knobs"] == {
        "prob_tol": 1e-9, "support_threshold": 1e-6, "bisect_width": 1e-3,
        "k_margin": 2.0}
    default = str(tmp_path / "default.json")
    assert main(base + [default]) == 0
    assert json.loads(open(default).read())["report"]["delta"] != \
        payload["report"]["delta"]


@pytest.mark.parametrize("flag, value", [
    ("--tol-bisect", "0"), ("--tol-bisect", "-1"),
    ("--tol-bisect", "nan"), ("--tol-bisect", "inf"),
    ("--tol-support", "nan"), ("--tol-support", "2"),
    ("--k-margin", "0"), ("--k-margin", "nan")])
def test_out_of_range_tolerance_flag_exits_2(files, tmp_path, capsys, flag,
                                             value):
    """A tolerance outside its range stops synthesize before any work, with
    one line naming the flag."""
    argv = blended_synthesis(files, tmp_path) + [
        "--epsilon", "0.05", "--method", "ex", flag, value]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: argument {flag}: ")


@pytest.mark.parametrize("threshold, message", [
    ("0.4", "state 1&q0: x and y both vanish at the support threshold 0.4"),
    ("0.6", "no state's occupation mass lies above the support threshold "
            "0.6")])
def test_support_threshold_that_empties_a_decoding_exits_4(
        files, tmp_path, capsys, threshold, message):
    """On the multichain model whose accepting component is the ring 3 <-> 4
    (occupation mass 1/2 at each state), a --tol-support of 0.6 empties the
    ring's support, and one of 0.4 empties both rows of the average-reward
    LP at state 1 (x = 0, y = 1/3 from the uniform initial weights): each
    is a solver failure reported on one line."""
    model = tmp_path / "ring.mdp"
    model.write_text(MODEL.replace("trans 4 a2 4 1.0\n", ""))
    util = tmp_path / "ring.txt"
    util.write_text("".join(line + "\n" for line in UTILITIES.splitlines()
                            if not line.startswith(("reward 4 a2",
                                                    "cost 4 a2"))))
    assert main(["synthesize", str(model), files["task.hoa"], str(util),
                 "--epsilon", "0.01", "--tol-support", threshold]) == 4
    assert capsys.readouterr().err == f"solver failure: {message}\n"


def test_width_below_float_spacing_ends(files, tmp_path):
    """--tol-bisect far below the float spacing near the degree still ends
    the exact-degree search."""
    assert main(blended_synthesis(files, tmp_path) + [
        "--epsilon", "0.05", "--method", "ex", "--tol-bisect", "1e-30"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_synthesize_rejects_non_finite_epsilon(files, value):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", files["model.mdp"], files["task.hoa"],
              files["utilities.txt"], "--epsilon", value])
    assert exc.value.code == 2


def test_uncertified_exact_degree_exits_4(files, tmp_path, monkeypatch,
                                          capsys):
    """When no probe of the exact degree qualifies, synthesize fails as a
    solver failure: here every probe finds the blend settled at the MAEC's
    second state, model state 4, whose best reward 3 is short of the
    optimum 5."""
    settled_probes(monkeypatch, 1)
    argv = blended_synthesis(files, tmp_path) + [
        "--epsilon", "0.05", "--method", "ex"]
    assert main(argv) == 4
    assert "without a certified positive degree" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """A fresh `import effsynth.cli` loads no scipy module, so decompose,
    evaluate and simulate never pay scipy's cold import; a solver that
    needs scipy must import it lazily."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(effsynth.__file__))
    code = ("import sys, effsynth.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("header", ["States: three", "Start:", "AP: x"])
def test_malformed_hoa_header_is_a_parse_error(files, tmp_path, capsys,
                                              header):
    """A header whose count is missing or not a number is reported at its
    line with exit 2, not as a traceback."""
    name = header.split(":")[0]
    lines = INF_OFTEN_G.splitlines()
    n = next(i for i, l in enumerate(lines) if l.startswith(name + ":"))
    lines[n] = header
    hoa = tmp_path / "header.hoa"
    hoa.write_text("\n".join(lines) + "\n")
    assert main(["decompose", files["model.mdp"], str(hoa)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {n + 1}: bad header line {header!r}\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_is_a_parse_error(files, tmp_path, capsys, kind):
    path = tmp_path / "nowhere.hoa"
    if kind == "directory":
        path.mkdir()
    assert main(["decompose", files["model.mdp"], str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ")


def test_non_utf8_input_is_a_parse_error(files, tmp_path, capsys):
    path = tmp_path / "latin1.mdp"
    path.write_bytes(MODEL.replace("props: g", "props: g # caf\xe9")
                     .encode("latin-1"))
    assert main(["decompose", str(path), files["task.hoa"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text ")


def test_argument_parser_is_built_once(files, monkeypatch, capsys):
    from effsynth import cli
    built = []

    def counted():
        built.append(1)
        return make_parser()

    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", counted)
    cli._argument_parser.cache_clear()
    for _ in range(2):
        assert main(["decompose", files["model.mdp"], files["task.hoa"]]) == 0
    assert len(built) == 1
    cli._argument_parser.cache_clear()


def test_subcommand_is_looked_up_at_call_time(files, monkeypatch, capsys):
    """Rebinding cli.cmd_evaluate after a first call takes effect, as the
    benchmark's span tracer relies on."""
    from effsynth import cli
    out = str(files["dir"] / "policy.txt")
    main(["synthesize", files["model.mdp"], files["task.hoa"],
          files["utilities.txt"], "--epsilon", "0.01", "--out", out])
    argv = ["evaluate", files["model.mdp"], files["task.hoa"],
            files["utilities.txt"], out]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_evaluate", lambda args: seen.append(args)
                        or 0)
    assert main(argv) == 0
    assert [args.policy for args in seen] == [out]


def test_input_passed_twice_hashes_once(tmp_path, capsys):
    """A model file with its utilities inline passed as model and as
    utility table: both reads land under its one path in the manifest."""
    import hashlib
    model = tmp_path / "model.mdp"
    model.write_text(MODEL + UTILITIES)
    hoa = tmp_path / "task.hoa"
    hoa.write_text(INF_OFTEN_G)
    report = tmp_path / "report.json"
    assert main(["synthesize", str(model), str(hoa), str(model),
                 "--epsilon", "0.01", "--report-out", str(report)]) == 0
    inputs = json.loads(report.read_text())["manifest"]["inputs"]
    assert inputs == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (model, hoa)}


def test_evaluate_loads_no_scipy(files):
    """A whole evaluate call in a fresh process leaves no scipy module
    loaded: an import on this path would cost every call scipy's cold
    import."""
    out = str(files["dir"] / "policy.txt")
    assert main(["synthesize", files["model.mdp"], files["task.hoa"],
                 files["utilities.txt"], "--epsilon", "0.01",
                 "--out", out]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(effsynth.__file__))
    argv = ["evaluate", files["model.mdp"], files["task.hoa"],
            files["utilities.txt"], out, "--out",
            str(files["dir"] / "evaluate.json")]
    code = ("import sys; from effsynth.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
