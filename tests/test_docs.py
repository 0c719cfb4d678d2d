"""The README quick start and the demo scripts run and agree with
themselves, and the package exports what they and the benchmark use."""
import ast
import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_one_relative_entropy(capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    direct, via_form = (float(x) for x in capsys.readouterr().out.split())
    assert abs(direct - via_form) <= 1e-12


@pytest.mark.parametrize("demo", ["functional_calculus.py",
                                  "matrix_perspective.py",
                                  "relative_entropy.py",
                                  "trace_functionals.py",
                                  "verification_campaign.py"])
def test_demo_runs_and_its_paths_agree(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # -W error: pyproject's warning filters do not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error",
                           str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("difference"):
            assert float(line.split()[-1]) <= 1e-12, line
    # the campaign demo replays its worst witness through run_single
    replays = [line.split()[-1] for line in lines
               if line.startswith("exact match:")]
    assert replays == (["True"] if demo == "verification_campaign.py"
                       else [])


def _names_taken_from_opconvex():
    """Names the demos and the README's Python blocks import from
    ``opconvex``, and the names ``bench/workloads.py`` reads as
    ``opconvex.X`` that are not submodules, read statically."""
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.S)
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "opconvex":
                names.update(alias.name for alias in node.names)
    package = ROOT / "src" / "opconvex"
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    for node in ast.walk(workloads):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "opconvex"
                and not (package / f"{node.attr}.py").exists()):
            names.add(node.attr)
    return names


def test_names_callers_take_from_the_package_are_exported():
    import opconvex
    taken = _names_taken_from_opconvex()
    assert "run_single" in taken  # the scan found the callers
    assert taken <= set(opconvex.__all__), taken - set(opconvex.__all__)


def test_all_is_the_package_namespace():
    import opconvex
    public = {name for name, value in vars(opconvex).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(opconvex.__all__) == sorted(public)
    assert len(set(opconvex.__all__)) == len(opconvex.__all__)


def test_exported_value_types_are_frozen_dataclasses():
    import opconvex
    from opconvex.functionals import ProbabilityVector
    kinds = [value for value in map(vars(opconvex).get, opconvex.__all__)
             if isinstance(value, type) and not issubclass(value, Exception)]
    assert "DensityMatrix" in {kind.__name__ for kind in kinds}
    for kind in kinds + [ProbabilityVector]:
        assert dataclasses.is_dataclass(kind), kind
        assert kind.__dataclass_params__.frozen, kind


def test_bench_tracer_resolves_every_traced_name():
    # the traced benchmark wraps library functions by name; a deleted or
    # renamed one makes its Tracer fail to construct
    import opconvex.cli  # noqa: F401  (the tracer wraps cli.main)
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    assert tracer.bindings()
