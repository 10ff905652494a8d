"""Guards for the public surface that the README and the benchmark's tracer
use, so that trimming the package cannot silently break either."""

import importlib
import re
import types
from pathlib import Path

from covertq import cli
from covertq.linops import DensityOperator

REPO = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(capsys):
    # Later blocks use names that earlier blocks define.
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert float(capsys.readouterr().out) > 0  # the quick start's m_lower


def test_benchmark_tracer_targets_exist():
    # Compiled from the source text, so no bytecode is written next to it.
    path = REPO / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    for layer in tracing.MODULES:
        importlib.import_module(f"covertq.{layer}")
    for layer, names in tracing.TARGETS.items():
        mod = importlib.import_module(f"covertq.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"covertq.{layer}.{name}"
    assert callable(cli.main)
    assert callable(DensityOperator.__post_init__)
