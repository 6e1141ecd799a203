"""Every top-level name in src/resolvlab is run by the CLI or is a listed oracle.

The walk is by name: a top-level function, class or constant of any
resolvlab module counts as reached when its name occurs, as a name or an
attribute, inside something already reached.  It starts from cli.main and
cli.COMMANDS, and separately from ORACLES: code the CLI never runs that
tests use as an independent check of code it does run.  Whatever neither
walk reaches is dead code and should be deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "resolvlab"

CLI_ROOTS = ("main", "COMMANDS")

ORACLES = (
    # the trace-free (Volevich) form of the surface solve and its datum
    "solve_surface_volevich",
    "extend_boundary_datum",
    # nested finite differences, the reference for the shared-offset stencils
    "_tangential_derivative",
    "_tau_scaled_derivative",
    # field import, the round trip of the solve artifacts
    "field_from_csv",
    "field_from_binary",
    # bent half space: measured contraction and the printed tensor split
    "contraction_ratio",
    "consistency_gap",
    # the un-eliminated generator behind build_generator's bordering
    "apply_full",
    "pack_state",
    "unpack_state",
    # the config writer of resolvbench/solve2d.py
    "dumps_config",
)


def top_level_definitions():
    """{name: [node, ...]} for every top-level def, class and assignment."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs.setdefault(name, []).append(node)
    return defs


def names_used(node):
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def reached(defs, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            todo.extend(names_used(node))
    return seen


def imported_names(paths):
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_every_definition_is_reached_from_the_cli_or_an_oracle():
    defs = top_level_definitions()
    unreached = set(defs) - reached(defs, CLI_ROOTS + ORACLES)
    assert not unreached, f"dead code in src/resolvlab: {sorted(unreached)}"


def test_oracles_are_defined_and_not_run_by_the_cli():
    defs = top_level_definitions()
    assert set(ORACLES) <= set(defs)
    run_by_cli = reached(defs, CLI_ROOTS)
    assert not run_by_cli & set(ORACLES), "an oracle the CLI runs checks nothing"


def test_every_oracle_is_imported_by_a_test_or_the_benchmark():
    users = [p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name]
    users += list((ROOT / "resolvbench").glob("*.py"))
    missing = set(ORACLES) - imported_names(users)
    assert not missing, f"oracles no test imports: {sorted(missing)}"


def test_only_symbols_py_names_the_symbols():
    # the symbol table in symbols.py is the one place a symbol is named
    from resolvlab.symbols import SYMBOLS

    for name in ("cli.py", "scans.py"):
        literals = {node.value for node in ast.walk(ast.parse((SRC / name).read_text()))
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        assert not literals & set(SYMBOLS), f"{name} names {sorted(literals & set(SYMBOLS))}"
