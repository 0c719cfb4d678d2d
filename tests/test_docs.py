"""The README quick start and the demo scripts run and agree with themselves."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_one_relative_entropy(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    direct, via_form = (float(x) for x in capsys.readouterr().out.split())
    assert abs(direct - via_form) <= 1e-12


# verification_campaign.py is left out: it takes seconds, and the verify
# tests already cover what it shows
@pytest.mark.parametrize("demo", ["functional_calculus.py",
                                  "matrix_perspective.py",
                                  "relative_entropy.py",
                                  "trace_functionals.py"])
def test_demo_runs_and_its_paths_agree(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        if line.startswith("difference"):
            assert float(line.split()[-1]) <= 1e-12, line
