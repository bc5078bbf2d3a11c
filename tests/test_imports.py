"""What gapboot loads: numpy, and nothing from scipy.  Importing it, a
series of every family (``ar2``'s AR(2) recursion included), a short
``gapboot simulate --model ar2``, ``gapboot od`` with or without
``--ridge``, and ``gapboot check`` all run on numpy alone, and no module
of the package imports scipy."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import gapboot

_SRC = os.path.dirname(os.path.dirname(gapboot.__file__))

_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import gapboot, gapboot.cli
report = {"import": scipy_modules()}
for family in ("ar2", "mma", "ma2", "periodic", "mar", "mperiodic"):
    gapboot.generate_series(gapboot.ModelSpec(family, 400, 10), seed=1)
    report[family] = scipy_modules()
code = gapboot.cli.main([
    "simulate", "--model", "ar2", "--n", "200", "--p", "5", "--runs", "2",
    "--truth-runs", "100", "--replicates", "50", "--out", sys.argv[1] + ".sim.csv",
])
report["simulate --model ar2"] = [code, scipy_modules()]
for ridge in ("0", "0.5"):
    code = gapboot.cli.main([
        "od", "--surrogate", "--days", "30", "--slots", "3", "--replicates", "50",
        "--ridge", ridge, "--out", sys.argv[1],
    ])
    report[f"od --ridge {ridge}"] = [code, scipy_modules()]
report["check"] = [gapboot.cli.main(["check"]), scipy_modules()]
print(json.dumps(report))
"""


def test_scipy_loads_only_where_used(tmp_path):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "od.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])  # after check's own lines
    assert report["import"] == []
    for family in ("ar2", "mma", "ma2", "periodic", "mar", "mperiodic"):
        assert report[family] == [], family
    assert report["simulate --model ar2"] == [0, []]
    for ridge in ("0", "0.5"):
        code, loaded = report[f"od --ridge {ridge}"]
        assert code == 0
        assert loaded == []
    assert report["check"] == [0, []]


def test_no_module_imports_scipy():
    modules = sorted(pathlib.Path(gapboot.__file__).parent.glob("*.py"))
    assert modules
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), module.name
