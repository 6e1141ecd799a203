"""The layering rules of src/resolvlab.

A module's _-prefixed names are its own: no other module imports them.
The oracles stay independent of the code they check: the residual
oracle in verification reads the grids alone, so importing it loads no
solver.  The package re-exports no layer, and each CLI command imports
the layers it runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_module_imports_another_modules_private_name():
    imports = []
    for path in sorted((SRC / "resolvlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("resolvlab")):
                imports += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not imports, f"private names imported across modules: {imports}"


def loaded_by(module):
    """The resolvlab modules a cold `import module` loads, sorted."""
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules if m.startswith('resolvlab')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_the_residual_oracle_loads_no_solver():
    # what verification loads beyond the package itself: the grids alone
    assert loaded_by("resolvlab.verification") == str(
        ["resolvlab", "resolvlab.grids", "resolvlab.verification"])


def test_the_cli_loads_no_layer():
    # each command imports its own layers; the package re-exports none
    assert loaded_by("resolvlab.cli") == str(
        ["resolvlab", "resolvlab.cli", "resolvlab.config", "resolvlab.errors",
         "resolvlab.grids", "resolvlab.regions"])
