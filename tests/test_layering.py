"""The layering rules of src/resolvlab.

A module's _-prefixed names are its own: no other module imports them.
The oracles stay independent of the code they check: the residual
oracle in verification reads the grids alone, so importing it loads no
solver.
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


def test_the_residual_oracle_loads_no_solver():
    # what verification loads beyond the package itself: the grids alone
    code = ("import sys, resolvlab\n"
            "before = set(sys.modules)\n"
            "import resolvlab.verification\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('resolvlab')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == str(["resolvlab.grids", "resolvlab.verification"])
