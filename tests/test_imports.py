"""What importing gapboot loads: numpy, and nothing from scipy until a
code path needs it.  ``gapboot od``, with or without ``--ridge``, solves
with numpy alone and loads no scipy, and so does ``gapboot check``;
``scipy.signal`` loads at the first ``ar2`` series, and no other family's
series loads it."""
import json
import os
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
for family in ("mma", "ma2", "periodic", "mar", "mperiodic"):
    gapboot.generate_series(gapboot.ModelSpec(family, 400, 10), seed=1)
    report[family] = scipy_modules()
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
    for family in ("mma", "ma2", "periodic", "mar", "mperiodic"):
        assert report[family] == [], family
    for ridge in ("0", "0.5"):
        code, loaded = report[f"od --ridge {ridge}"]
        assert code == 0
        assert loaded == []
    assert report["check"] == [0, []]
