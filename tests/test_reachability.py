"""Every name in src/resolvlab is run by the CLI or is a listed oracle.

The walk is by name: a top-level function, class or constant of any
resolvlab module counts as reached when its name occurs, as a name or an
attribute, inside something already reached.  A class member (method,
property, dataclass field or class constant) counts as reached when its
name occurs as an attribute, as in `obj.member`: a keyword argument or a
local variable of the same name does not read it.  A reached class brings
in its bases, decorators and dunder methods, not its other members.  The
walk starts from cli.main and cli.COMMANDS, and separately from ORACLES:
code the CLI never runs that tests use as an independent check of code it
does run.  Whatever neither walk reaches is dead code and should be
deleted.

Members are matched by name alone, so a member that shares its name with
a reached one counts as reached too, whatever its class: a dead
DiffeoSpec.inverse passed because TangentialGrid.inverse is called.
Such a member is found only by reading, or by a grep for its callers.

The walk sees names, not branches: a fork, a switch or an output path
inside a reached function passes it however dead it is.  Those are found
by a line trace (the stdlib trace module) of the command set that CI
runs, which lists the function-body lines no command executes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "resolvlab"

CLI_ROOTS = ("main", "COMMANDS")

# members called through getattr with a task-name string: scans._Scan's
# summarize (a run of chunks) and report (a group of symbols, ascended in
# lock-step) are the tasks that multiplier_class_scan passes to run
DISPATCHED = ("summarize", "report")

# fields of an oracle's result: the tests that check against the oracle read them
ORACLE_RESULTS = ("estimate", "band")

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
    # the sampled R-bound, which never exceeds rbound's exact value and
    # reaches it on the maximising mode's unit vector
    "rbound_estimate",
)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _is_member(node):
    return any(not _is_dunder(name) for name in _defined_names(node))


def definitions():
    """({name: [node, ...]} for every top-level def, class and assignment,
    {member name: [node, ...]} for every named member of those classes)."""
    defs, members = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in filter(lambda n: not _is_dunder(n), _defined_names(node)):
                defs.setdefault(name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for sub in filter(_is_member, node.body):
                    for name in _defined_names(sub):
                        members.setdefault(name, []).append(sub)
    return defs, members


def _own_parts(node):
    """What a reached definition runs itself: a class without its named members."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return (node.bases + node.keywords + node.decorator_list
            + [sub for sub in node.body if not _is_member(sub)])


def reached(defs, members, roots, member_roots=()):
    """(top-level names, member names) reached from roots and member_roots."""
    seen, seen_members = set(), set()
    todo = [(name, False) for name in roots] + [(name, True) for name in member_roots]
    while todo:
        name, as_attr = todo.pop()
        nodes = []
        if name in defs and name not in seen:
            seen.add(name)
            nodes += [part for node in defs[name] for part in _own_parts(node)]
        if as_attr and name in members and name not in seen_members:
            seen_members.add(name)
            nodes += members[name]
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                todo.append((sub.id, False))
            elif isinstance(sub, ast.Attribute):
                todo.append((sub.attr, True))
    return seen, seen_members


def imported_names(paths):
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_every_definition_is_reached_from_the_cli_or_an_oracle():
    defs, members = definitions()
    seen, seen_members = reached(defs, members, CLI_ROOTS + ORACLES,
                                 DISPATCHED + ORACLE_RESULTS)
    unreached = (set(defs) - seen) | (set(members) - seen_members)
    assert not unreached, f"dead code in src/resolvlab: {sorted(unreached)}"


def test_oracles_are_defined_and_not_run_by_the_cli():
    defs, members = definitions()
    assert set(ORACLES) <= set(defs)
    run_by_cli, _ = reached(defs, members, CLI_ROOTS, DISPATCHED)
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
