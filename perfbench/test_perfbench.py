"""Tests of the benchmark itself: generators, span accounting, the tail
percentile rule, the committed reference, and one small end-to-end run."""

import math
import os
import sys
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import instances  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from effsynth import casestudies  # noqa: E402


def test_generators_are_byte_identical_per_seed():
    assert instances.multichain_instance(3).files == \
        instances.multichain_instance(3).files
    assert instances.delivery_instance(11).files == \
        instances.delivery_instance(11).files
    assert instances.multichain_instance(3).files != \
        instances.multichain_instance(4).files
    assert instances.multichain_instance(3, batch_seed=1).files != \
        instances.multichain_instance(3).files


def test_committed_reference_matches_the_oracle():
    ref = oracle.build_reference()
    with open(oracle.REFERENCE_FILE) as f:
        committed = run.json.load(f)
    assert set(ref) == set(committed)
    for name, values in ref.items():
        if values is None:
            assert committed[name] is None
        else:
            assert committed[name] == pytest.approx(values, rel=1e-9)


class _Clock:
    """Advances by one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a defines inner/outer; fakepkg.b imports inner by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def inner():\n    return 1\n"
         "def outer():\n    return inner() + inner()\n"
         "def _private():\n    return 0\n", a.__dict__)
    b.inner = a.inner
    exec("def caller():\n    return inner()\n", b.__dict__)
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_span_self_time_excludes_child_spans(fake_package):
    a, b = fake_package
    tracer = spans.Tracer(clock=_Clock())
    with tracer.installed(layers=("a",), package="fakepkg"):
        assert a.outer() == 2
        assert b.caller() == 1  # bound by name in another module
    names = [s.name for s in tracer.spans]
    assert names == ["a.outer", "a.inner", "a.inner", "a.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    # outer: ticks 1..6, children 2..3 and 4..5
    assert [s.duration for s in tracer.spans] == [5.0, 1.0, 1.0, 1.0]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0, 1.0]
    assert a.inner.__module__ == "fakepkg.a" and b.inner is a.inner
    assert not hasattr(a.outer, "__wrapped__")


def test_span_records_errors_and_unwinds(fake_package):
    a, _ = fake_package
    exec("def boom():\n    raise KeyError(1)\n", a.__dict__)
    tracer = spans.Tracer(clock=_Clock())
    with tracer.installed(layers=("a",), package="fakepkg"):
        with pytest.raises(KeyError):
            a.boom()
        a.inner()
    assert [(s.name, s.error, s.parent) for s in tracer.spans] == \
        [("a.boom", "KeyError", None), ("a.inner", None, None)]


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    got = run.tail_percentile(list(range(n, 0, -1)))
    if expected is None:
        assert got is None
    else:
        p, value = got
        assert p == expected
        # nearest rank on the values 1..n
        assert value == math.ceil(Fraction(str(p)) * n / 100)
        assert n - value >= 10


def _tiny_grid():
    params = casestudies.Case1Params(
        size=4, obstacles=frozenset(), initial=(1, 1),
        destinations={(4, 1): 2.0, (1, 4): 1.0}, charging=(3, 1))
    m, _, task2, reward, cost = casestudies.gen_case1(params)
    return instances.Instance("tiny", m, task2, reward, cost)


@pytest.mark.parametrize("set_up_synth", [(), ("tiny",)])
def test_smoke_run_passes_output_checks(set_up_synth, tmp_path, monkeypatch,
                                        capsys):
    """Rounds that synthesize the instance, and rounds that only replay
    the policy set-up synthesized for it."""
    inst = _tiny_grid()
    monkeypatch.setattr(instances, "workload_instances", lambda w: [inst])
    monkeypatch.setitem(run.SETUP_REPS, "delivery_ladder", 1)
    monkeypatch.setitem(run.SET_UP_SYNTH, "delivery_ladder", set_up_synth)
    bench = run.Bench("delivery_ladder", seed=5, seconds=0, trace=True,
                      work_dir=str(tmp_path))
    bench.reference = {"tiny": oracle.component_values(inst)}
    bench.run()
    kinds = {op.kind for op in bench.ops}
    assert kinds == {"synth_es", "evaluate", "simulate"} | \
        (set() if set_up_synth else {"synth_ex"})
    assert [op.outcome for op in bench.ops] == ["ok"] * len(bench.ops), \
        [op.error for op in bench.ops]
    layers = bench.per_layer()
    assert layers["chain.analyze_calls"][0] > 0
    # set-up runs untraced, so replay-only rounds record no LP
    assert (layers["lp.solve_lp_calls"][0] > 0) != bool(set_up_synth)
    # one calibration sample first, then one after each call and set-up
    samples = bench.calibration.samples
    assert len(samples) == len(bench.ops) + 2
    assert bench.ops[-1].scale == \
        run.CALIBRATION_REF_S / min(samples[-2], samples[-1])
    if not set_up_synth:
        metrics = bench.end_to_end()
        assert metrics["ok_share"][0] == 1.0
        passes = bench.passes["synth_es"]
        assert metrics["synth_es_s"][0] == pytest.approx(
            run.statistics.median(sum(op.seconds * op.scale for op in ops)
                                  for ops in passes))
    run.report(bench, layers, True)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = run.json.loads(last)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(layers)


def test_wrong_output_is_recorded_not_raised(tmp_path, monkeypatch):
    inst = _tiny_grid()
    monkeypatch.setattr(instances, "workload_instances", lambda w: [inst])
    monkeypatch.setitem(run.SETUP_REPS, "delivery_ladder", 1)
    bench = run.Bench("delivery_ladder", seed=5, seconds=0, trace=False,
                      work_dir=str(tmp_path))
    bench.reference = {"tiny": [v + 1.0
                                for v in oracle.component_values(inst)]}
    bench.run()
    synth = [op for op in bench.ops if op.kind.startswith("synth")]
    assert {op.outcome for op in synth} == {"wrong"}
    assert all("reference" in op.error for op in synth)
