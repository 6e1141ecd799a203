"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q resolvbench
"""

import json
import os
import re
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install, summarize, uninstall  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                              "BENCHMARK.json")
CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "configs", "baseline.cfg")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- self time ----------------------------------------------------------------

def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    outer = tr.begin("outer")          # 0 .. 10
    clock.now = 1.0
    a = tr.begin("inner")              # 1 .. 4
    clock.now = 2.0
    leaf = tr.begin("leaf")            # 2 .. 3
    clock.now = 3.0
    tr.end(leaf)
    clock.now = 4.0
    tr.end(a)
    clock.now = 6.0
    b = tr.begin("inner")              # 6 .. 9
    clock.now = 9.0
    tr.end(b)
    clock.now = 10.0
    tr.end(outer)

    s = summarize(tr.spans)
    assert s["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert s["leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert [sp[3] for sp in tr.spans] == [-1, 0, 1, 0]


def test_wrap_records_span_and_counter_even_on_error():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def f(x):
        clock.now += 2.0
        if x < 0:
            raise ValueError
        return x

    g = tr.wrap("f", f, count=lambda a, k, out: {"f.items": out})
    assert g(3) == 3
    with pytest.raises(ValueError):
        g(-1)
    assert summarize(tr.spans)["f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert tr.counters == {"f.items": 3}


# -- alias patching -----------------------------------------------------------

def test_install_patches_aliases_and_methods_then_restores():
    lib = types.ModuleType("fake_lib")

    def kernel(x):
        return 2 * x

    class Grid:
        def forward(self, x):
            return x + 1

        @classmethod
        def load(cls, x):
            return cls, x

    lib.kernel, lib.Grid = kernel, Grid
    user = types.ModuleType("fake_user")   # as after `from .lib import kernel as k`
    user.k = kernel
    user.caller = lambda x: user.k(x)

    tr = Tracer()
    patched = install(tr, [(lib, "kernel", "lib.kernel", None),
                           (lib, "Grid.forward", "lib.Grid.forward", None),
                           (lib, "Grid.load", "lib.Grid.load", None)], [lib, user])
    assert lib.kernel is not kernel and user.k is lib.kernel
    assert user.caller(2) == 4 and lib.Grid().forward(1) == 2
    assert Grid.load(5) == (Grid, 5)
    assert summarize(tr.spans).keys() == {"lib.kernel", "lib.Grid.forward", "lib.Grid.load"}

    uninstall(patched)
    assert lib.kernel is kernel and user.k is kernel
    assert vars(Grid)["forward"].__name__ == "forward" and not hasattr(
        vars(Grid)["forward"], "__wrapped__")


def test_install_reaches_resolvlab_aliases():
    import resolvlab.bent
    import resolvlab.cli
    import resolvlab.halfspace
    import resolvlab.scans
    import resolvlab.symbols

    before = (resolvlab.cli.solve_full_resolvent, resolvlab.scans.lopatinski_values)
    tr = Tracer()
    patched = install(tr, child.layer_targets(), child.resolvlab_modules())
    try:
        assert resolvlab.cli.solve_full_resolvent is resolvlab.halfspace.solve_full_resolvent
        assert resolvlab.cli.solve_full_resolvent is not before[0]
        assert resolvlab.scans.lopatinski_values is resolvlab.symbols.lopatinski_values
        assert resolvlab.halfspace.lopatinski_values is resolvlab.symbols.lopatinski_values
        assert resolvlab.scans.lopatinski_values is not before[1]
        # bent reaches solve_lame_bvp through halfspace's module global
        assert resolvlab.bent.solve_reduced_resolvent.__globals__["solve_lame_bvp"] \
            is resolvlab.halfspace.solve_lame_bvp
        assert hasattr(resolvlab.halfspace.solve_lame_bvp, "__wrapped__")
    finally:
        uninstall(patched)
    assert (resolvlab.cli.solve_full_resolvent, resolvlab.scans.lopatinski_values) == before
    assert not hasattr(resolvlab.halfspace.solve_lame_bvp, "__wrapped__")


def test_traced_counters_on_real_calls():
    import numpy as np
    from resolvlab.regions import FluidParams
    from resolvlab.symbols import SymbolParams, lopatinski_values

    tr = Tracer()
    patched = install(tr, child.layer_targets(), child.resolvlab_modules())
    try:
        import resolvlab.symbols
        p = SymbolParams.from_fluid(FluidParams())
        resolvlab.symbols.lopatinski_values(np.full(7, 4.0 + 0j), np.ones(7), p)
    finally:
        uninstall(patched)
    assert lopatinski_values is resolvlab.symbols.lopatinski_values
    s = summarize(tr.spans)
    assert s["symbols.lopatinski_values"]["calls"] == 1
    assert s["symbols.core_values"]["calls"] == 1   # nested, through the module global
    assert tr.counters["symbols.points"] == 7


# -- metric names -------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    names = list(run.END_TO_END) + run.per_layer_names()
    assert len({n for n, _ in names}) == len(names)
    for name, unit in names:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_runner():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- operation accounting -----------------------------------------------------

def _verdicts(*passed):
    return [{"name": f"v{i}", "passed": p, "value": 0.0, "tolerance": 1.0}
            for i, p in enumerate(passed)]


def test_score_counts_verdicts_and_rejects_bad_runs():
    good = (_verdicts(True, False, True), "fp")
    assert run.score(4, good, 9, None) == (3, 1, True)
    assert run.score(4, good, 9, "fp") == (3, 1, True)
    assert run.score(4, good, 9, "other") == (3, 3, False)   # differs from reference
    assert run.score(0, good, 9, None) == (3, 3, False)      # exit 0 with a failed verdict
    assert run.score(1, None, 9, None) == (9, 9, False)      # crash, no report
    assert run.score(3, good, 9, None) == (9, 9, False)      # numerical failure
    assert run.score(-9, good, 9, None) == (9, 9, False)     # killed


def test_ledger_crashed_command(tmp_path):
    ledger = run.Ledger()
    assert not ledger.record("solve", 1, str(tmp_path))       # nothing written
    assert (ledger.attempted, ledger.failed, ledger.sound) == (5, 5, False)
    assert ledger.passed_frac == 0.0 and ledger.failed_frac == 1.0


def test_ledger_config_error_from_the_cli(tmp_path):
    from resolvlab.cli import main

    bad = tmp_path / "bad.cfg"
    bad.write_text("[fluid]\nmu = oops\n")
    out = tmp_path / "out"
    rc = main(["bent", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert json.loads((out / "report.json").read_text())["error"]["type"] == "config"

    ledger = run.Ledger()
    assert not ledger.record("bent", rc, str(out))
    assert (ledger.attempted, ledger.failed) == (5, 5)
    assert ledger.passed_frac == 0.0


def _write_report(out, verdicts):
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"command": "verify-symbols",
                                                 "verdicts": verdicts}))


def test_passed_frac_excuses_only_seed_dependent_failures(tmp_path):
    names = ["scan.A.finite", "scan.A.refinement", "scan.B.finite", "scan.B.refinement"]

    def verdicts(*passed):
        return [{"name": n, "passed": p, "value": 0.0, "tolerance": 1.0}
                for n, p in zip(names, passed)]

    _write_report(tmp_path / "known", verdicts(True, False, True, True))
    ledger = run.Ledger()
    assert ledger.record("verify-symbols", 4, str(tmp_path / "known"))
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert ledger.passed_frac == 1.0 and ledger.failed_frac == 0.25

    _write_report(tmp_path / "new", verdicts(False, False, True, True))
    ledger = run.Ledger()
    assert ledger.record("verify-symbols", 4, str(tmp_path / "new"))
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.passed_frac == 0.75


def test_ledger_compares_reports_and_artifacts(tmp_path):
    from resolvlab.cli import main

    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out in outs:
        assert main(["solve", "--config", CONFIG, "--out", str(out), "--seed", "3"]) == 0
    flipped = bytearray((outs[2] / "u.bin").read_bytes())
    flipped[0] ^= 1
    (outs[2] / "u.bin").write_bytes(bytes(flipped))

    ledger = run.Ledger()
    assert ledger.record("solve", 0, str(outs[0]))
    assert ledger.record("solve", 0, str(outs[1]))     # wallTime differs only
    assert (ledger.attempted, ledger.failed) == (5, 0)   # counted once, not per run
    assert not ledger.record("solve", 0, str(outs[2]))
    assert (ledger.attempted, ledger.failed, ledger.sound) == (5, 5, False)
    assert ledger.record("solve", 0, str(outs[0]))     # a broken command stays failed
    assert (ledger.attempted, ledger.failed) == (5, 5)
    assert 4 < min(ledger.residuals)


# -- 2-D shim -----------------------------------------------------------------

def test_solve2d_runs_the_cli_solve_on_a_2d_grid(tmp_path, monkeypatch):
    import resolvlab.cli
    import solve2d

    monkeypatch.setattr(solve2d, "GRID_2D",
                        {"dims": 2, "tangential_points": 8, "normal_points": 48})
    builtin = resolvlab.cli._builtin_gaussian_data
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert solve2d.main(["--config", CONFIG, "--out", str(out), "--seed", "5",
                             "--threads", "1"]) == 0
    assert resolvlab.cli._builtin_gaussian_data is builtin
    report = json.loads((outs[0] / "report.json").read_text())
    assert report["command"] == "solve" and report["seed"] == 5
    assert [v["name"].split(".")[0] for v in report["verdicts"]] == ["residual"] * 5

    ledger = run.Ledger()
    assert ledger.record("solve-2d", 0, str(outs[0]))
    assert ledger.record("solve-2d", 0, str(outs[1]))
    assert (ledger.attempted, ledger.failed) == (5, 0)
