import importlib.util
import json
import os
import subprocess
import sys

import pytest


@pytest.fixture
def same_outputs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "same_outputs.py")
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_tells_numeric_moves_from_other_changes(same_outputs,
                                                        tmp_path, capsys):
    """--compare skips equal files, gives the largest relative move of a
    file whose numbers alone moved (digits inside a name are not numbers),
    prints any other difference verbatim, names a file only one side has,
    and exits 1."""
    files = {"same.json": ('{"v": 1}\n', '{"v": 1}\n'),
             "report.json": ('{"r1c1_0": [0.5, 2e-3], "n": 4}\n',
                             '{"r1c1_0": [0.5000000000000001, 2e-3], '
                             '"n": 4}\n'),
             "run.console": ("exit 0\nr1c1 ok\n", "exit 0\nr1c2 ok\n")}
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
    for name, (text_a, text_b) in files.items():
        (a / name).write_text(text_a)
        (b / name).write_text(text_b)
    (a / "only.txt").write_text("x\n")
    assert same_outputs.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"only.txt: only in {a}"
    assert out[1] == \
        "report.json: numbers only, largest relative move 2.22e-16"
    assert out[2] == "run.console: differs"
    assert out[-3:] == ["-r1c1 ok", "+r1c2 ok", "3 of 4 files differ"]
    assert "same.json" not in "\n".join(out)


def test_compare_of_equal_trees_exits_0(same_outputs, tmp_path, capsys):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "f.json").write_text('{"v": 0.1}\n')
    assert same_outputs.main(["--compare", str(tmp_path / "a"),
                              str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "0 of 1 files differ\n"


def test_pythonpath_tree_is_the_one_tested(tmp_path):
    """A test run from this checkout with PYTHONPATH naming another tree
    imports that tree's effsynth (here a stub that prints sys.path and
    nothing more), and this checkout's src comes after it and ahead of
    site-packages."""
    (tmp_path / "effsynth").mkdir()
    (tmp_path / "effsynth" / "__init__.py").write_text(
        "import json, sys\nprint('stub effsynth', json.dumps(sys.path))\n")
    root = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                        os.pardir))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         "--collect-only", os.path.join("tests", "test_tools.py")],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=120)
    lines = [line for line in run.stdout.splitlines()
             if line.startswith("stub effsynth ")]
    assert lines, run.stdout + run.stderr
    path = [os.path.abspath(p) for p in json.loads(lines[0].split(" ", 2)[2])]
    src = path.index(os.path.join(root, "src"))
    assert path.index(str(tmp_path)) < src
    assert all(src < i for i, p in enumerate(path)
               if os.path.basename(p) == "site-packages")
