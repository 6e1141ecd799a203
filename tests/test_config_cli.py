import json
import math
import os
import re

import numpy as np
import pytest

from resolvlab.cli import main
from resolvlab.config import (
    ConfigError,
    RunConfig,
    canonical_json,
    config_hash,
    dumps_config,
    parse_config,
)
from resolvlab.fieldio import field_from_binary, field_from_csv, field_to_binary, field_to_csv
from resolvlab.grids import BoundaryField, HalfSpaceField, NormalGrid, TangentialGrid

CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "baseline.cfg")


# -- config dialect ---------------------------------------------------------

def test_parse_roundtrip():
    with open(CFG) as fh:
        cfg = parse_config(fh.read())
    text = dumps_config(cfg)
    assert parse_config(text) == cfg


def test_parse_value_types():
    cfg = parse_config('[a]\nx = 1\ny = 2.5\nz = true\ns = "hi"\nl = [1, 2.0, false]\n')
    assert cfg["a"]["x"] == 1 and isinstance(cfg["a"]["x"], int)
    assert cfg["a"]["y"] == 2.5
    assert cfg["a"]["z"] is True
    assert cfg["a"]["s"] == "hi"
    assert cfg["a"]["l"] == [1, 2.0, False]


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("x = 1\n")  # key outside section
    with pytest.raises(ConfigError):
        parse_config("[a]\nnonsense\n")
    with pytest.raises(ConfigError):
        parse_config("[a]\nx = @bad@\n")


def test_config_hash_semantics():
    a = parse_config("[s]\nx = 1.0\n")
    b = parse_config("# comment\n[s]\n\nx   =    1.0   # same content\n")
    c = parse_config("[s]\nx = 2.0\n")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_run_config_missing_block():
    with pytest.raises(ConfigError):
        RunConfig.load("[fluid]\nmu = 1.0\n", "scan-nab")


def test_run_config_rbound_loads_without_a_seed():
    # rbound draws nothing: it needs no seed, and records one only when given
    text = "[fluid]\n[sector]\n[grid]\n[rbound]\n"
    assert RunConfig.load(text, "rbound").seed is None
    assert RunConfig.load(text, "rbound", seed=7).seed == 7


def test_run_config_seed_from_the_commands_own_block():
    text = ("[fluid]\n[sector]\n[grid]\n[contour]\n[solve]\n"
            "[scan]\nseed = 1\n[nab]\nseed = 5\n[evolve]\n")
    assert RunConfig.load(text, "scan-nab").seed == 5
    assert RunConfig.load(text, "verify-symbols").seed == 1
    assert RunConfig.load(text, "scan-nab", seed=7).seed == 7
    assert RunConfig.load(text, "evolve").seed == 0   # draws, block sets none
    assert RunConfig.load(text, "solve").seed is None  # draws nothing


def test_canonical_json_is_deterministic():
    obj = {"b": 1.0 / 3.0, "a": [1, 2.5, True, None], "c": "x"}
    s1 = canonical_json(obj)
    s2 = canonical_json({"c": "x", "a": [1, 2.5, True, None], "b": 1.0 / 3.0})
    assert s1 == s2
    assert "0.33333333333333331" in s1  # 17 significant digits


# -- field I/O --------------------------------------------------------------

def test_field_csv_roundtrip(tmp_path):
    tg = TangentialGrid(points=16, half_length=4.0)
    ng = NormalGrid(points=12, truncation=10.0)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((16, 12, 2)) + 1j * rng.standard_normal((16, 12, 2))
    f = HalfSpaceField(vals, tg, ng)
    field_to_csv(f, str(tmp_path / "f.csv"))
    back = field_from_csv(str(tmp_path / "f.csv"), tg, ng, f.space)
    assert np.max(np.abs(back.values - vals)) < 1e-15

    b = BoundaryField(vals[:, 0, :], tg)
    field_to_csv(b, str(tmp_path / "b.csv"))
    back = field_from_csv(str(tmp_path / "b.csv"), tg, None, b.space)
    assert np.max(np.abs(back.values - b.values)) < 1e-15

    # the exact text: integer index columns, 17 significant digits, -0 kept
    tiny = TangentialGrid(points=4, half_length=1.0)
    vals = np.array([[complex(-0.0, 0.1), complex(1 / 3, -2.5e-300)],
                     [complex(1e20, -0.0), complex(0.0, 7.0)],
                     [complex(-1.5, 2.0), complex(np.pi, -np.e)],
                     [complex(1e-5, 123456789.0), complex(-0.0, -0.0)]])
    field_to_csv(BoundaryField(vals, tiny), str(tmp_path / "tiny.csv"))
    assert (tmp_path / "tiny.csv").read_text() == (
        "mode0,re0,im0,re1,im1\n"
        "0,-0,0.10000000000000001,0.33333333333333331,-2.5e-300\n"
        "1,1e+20,-0,0,7\n"
        "2,-1.5,2,3.1415926535897931,-2.7182818284590451\n"
        "3,1.0000000000000001e-05,123456789,-0,-0\n")
    h = np.zeros((4, 8, 1), dtype=complex)
    h[1, 2, 0] = complex(-0.0, 0.25)
    field_to_csv(HalfSpaceField(h, tiny, NormalGrid(points=8, truncation=1.0)),
                 str(tmp_path / "tiny_h.csv"))
    lines = (tmp_path / "tiny_h.csv").read_text().splitlines()
    assert lines[:2] == ["mode0,node,re0,im0", "0,0,0,0"]
    assert lines[11] == "1,2,-0,0.25" and len(lines) == 33


def test_field_binary_roundtrip(tmp_path):
    tg = TangentialGrid(points=16, half_length=4.0)
    ng = NormalGrid(points=12, truncation=10.0)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16, 12, 1)) + 1j * rng.standard_normal((16, 12, 1))
    f = HalfSpaceField(vals, tg, ng, "spectral")
    p = str(tmp_path / "f.bin")
    field_to_binary(f, p)
    assert (tmp_path / "f.bin").read_bytes() == vals.astype("<c16").tobytes()
    meta = json.load(open(p + ".json"))
    assert meta == {"kind": "halfspace", "dims": 1, "counts": [16, 12, 1],
                    "dtype": "<c16", "space": "spectral"}
    back = field_from_binary(p, tg, ng)
    assert np.array_equal(back.values, vals)
    assert back.space == "spectral"


def test_field_binary_rejects_an_unknown_space(tmp_path):
    # a field is physical or spectral; a sidecar naming another space does not load
    tg = TangentialGrid(points=16, half_length=4.0)
    p = str(tmp_path / "k.bin")
    field_to_binary(BoundaryField(np.ones(16), tg, "spectral"), p)
    meta = json.load(open(p + ".json"))
    meta["space"] = "fourier"
    with open(p + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match="space must be one of"):
        field_from_binary(p, tg)


# -- CLI runs ---------------------------------------------------------------

def small_cfg(tmp_path, **over):
    text = open(CFG).read()
    text = text.replace("samples = 100000", "samples = 20000")
    text = text.replace("samples = 10000", "samples = 2000")
    text = text.replace("normal_points = 96", "normal_points = 48")
    for k, v in over.items():
        text = re.sub(rf"(?m)^{k} = .*$", f"{k} = {v}", text)
    p = tmp_path / "cfg.cfg"
    p.write_text(text)
    return str(p)


def test_cli_scan_nab(tmp_path, capsys):
    rc = main(["scan-nab", "--config", small_cfg(tmp_path),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["command"] == "scan-nab"
    assert rep["result"]["lambda0Found"] >= 1.0
    assert [v["name"] for v in rep["verdicts"]] == ["nab.lambda0", "nab.constant"]
    assert all(v["passed"] for v in rep["verdicts"])
    out = capsys.readouterr().out
    assert "PASS nab.lambda0" in out


def test_cli_scan_nab_reads_its_own_seed(tmp_path):
    cfgp = small_cfg(tmp_path)
    text = open(cfgp).read()
    text = text.replace("[scan]", "[scan]\nseed = 1", 1).replace("[nab]", "[nab]\nseed = 5", 1)
    text = re.sub(r"(?m)^seed = 0$", "", text)
    open(cfgp, "w").write(text)
    rc = main(["scan-nab", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 0
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["seed"] == 5 and rep["result"]["seed"] == 5


def test_cli_solve_zero_data_and_artifacts(tmp_path):
    cfgp = small_cfg(tmp_path, amplitude="0.0")
    rc = main(["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 0
    rep = json.load(open(tmp_path / "report.json"))
    assert all(v["value"] == 0.0 for v in rep["verdicts"])
    assert (tmp_path / "u.csv").exists()
    assert (tmp_path / "u.bin.json").exists()


def test_cli_solve_gaussian(tmp_path):
    rc = main(["solve", "--config", small_cfg(tmp_path), "--out", str(tmp_path)])
    assert rc == 0


def test_cli_exit_2_on_malformed_config(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[fluid]\nmu = 1.0\n")  # missing [sector] etc.
    rc = main(["solve", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 2
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "config"


@pytest.mark.parametrize("command, key, value, section", [
    ("solve", "tangential_points", "60", "grid"),      # not a power of two
    ("solve", "normal_points", "4", "grid"),           # below 8 nodes
    ("solve", "dims", "2", "grid"),                    # built-in data are 1-D
    ("evolve", "angle", "2.0", "contour"),             # outside (0, pi/2)
    ("bent", "width", "-1.0", "bent"),                 # bump width not positive
    ("bent", "dims", "2", "grid"),                     # the bent half space is 1-D
    ("scan-nab", "samples", '"many"', "nab"),          # not an integer
    ("verify-symbols", "symbols", "[]", "scan"),       # nothing to scan
    ("solve", "lambda_re", '"x"', "solve"),            # not a number
    ("rbound", "lambda_factors", "[]", "rbound"),      # no operator
    ("evolve", "times", "[-1.0]", "evolve"),           # time not positive
    ("evolve", "times", "[]", "evolve"),               # no time
    ("solve", "residual", '"x"', "tolerances"),        # not a number
    # integer keys take no fraction, bool or string
    ("solve", "normal_points", "96.7", "grid"),
    ("solve", "tangential_points", "16.5", "grid"),
    ("solve", "dims", "true", "grid"),
    ("rbound", "j_weight", "1.9", "rbound"),
    ("verify-symbols", "samples", "2000.5", "scan"),
    ("scan-nab", "samples", "20000.5", "nab"),
    ("evolve", "nodes", "48.5", "contour"),
    ("bent", "max_iter", '"40"', "bent"),
    # a seed is a non-negative integer, from the block or from --seed
    ("scan-nab", "seed", "-1", "nab"),
    ("evolve", "--seed", "-1", "evolve"),
])
def test_cli_exit_2_on_invalid_parameter(tmp_path, command, key, value, section):
    flag = key.startswith("--")
    cfgp = small_cfg(tmp_path, **({} if flag else {key: value}))
    rc = main([command, "--config", cfgp, "--out", str(tmp_path)] + ([key, value] if flag else []))
    assert rc == 2
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "config"
    assert rep["error"]["message"].startswith(f"invalid [{section}]")
    assert rep["verdicts"] == []


@pytest.mark.parametrize("command, section", [
    ("verify-symbols", "scan"), ("scan-nab", "nab"), ("evolve", "evolve")])
@pytest.mark.parametrize("value", ["1.5", "true"])
def test_cli_exit_2_on_non_integral_block_seed(tmp_path, command, section, value):
    rc = main([command, "--config", small_cfg(tmp_path, seed=value), "--out", str(tmp_path)])
    assert rc == 2
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["message"].startswith(f"invalid [{section}]")


# a zeta that does not suit its case: C2 needs Im zeta != 0, C3 Re zeta >= 0
ZETA_OUTSIDE_ITS_CASE = {"C2": {"zeta_case": '"C2"', "zeta_re": "-0.3", "zeta_im": "0.0"},
                         "C3": {"zeta_case": '"C3"', "zeta_re": "-0.3"}}


@pytest.mark.parametrize("case", sorted(ZETA_OUTSIDE_ITS_CASE))
@pytest.mark.parametrize("command", ["solve", "verify-symbols", "scan-nab", "rbound", "evolve",
                                     "bent"])
def test_cli_exit_2_on_zeta_outside_its_case(tmp_path, command, case):
    # RunConfig.load checks the case of every [sector] block, evolve's too
    cfgp = small_cfg(tmp_path, **ZETA_OUTSIDE_ITS_CASE[case])
    rc = main([command, "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 2
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "config"
    assert rep["error"]["message"].startswith(f"invalid [sector]: case {case} requires")
    assert rep["verdicts"] == []


def test_cli_exit_3_on_expm_dimension_cap(tmp_path, monkeypatch):
    from resolvlab import evolution

    monkeypatch.setattr(evolution, "EXPM_DIM_CAP", 10)
    rc = main(["evolve", "--config", small_cfg(tmp_path, normal_points="24"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 3
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "numerical"
    assert rep["error"]["class"] == "DimensionCapError"


def test_cli_exit_3_on_contour_outside_the_region(tmp_path):
    # asymptote pi/2 + 1.2 beyond pi - epsilon and vertex 0.2 below lambda0
    cfgp = small_cfg(tmp_path, normal_points="24", angle="1.2", offset="0.2")
    rc = main(["evolve", "--config", cfgp, "--out", str(tmp_path), "--seed", "0"])
    assert rc == 3
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "numerical"
    assert rep["error"]["class"] == "ContourError"


def test_cli_exit_3_on_numerical_failure(tmp_path):
    cfgp = small_cfg(tmp_path, lambda_re="0.5")  # below lambda0: region error
    rc = main(["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 3
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "numerical"


@pytest.mark.filterwarnings("error::RuntimeWarning")   # rejected before numpy warns
@pytest.mark.parametrize("command, over", [
    ("bent", {"lambda_re": "0.5"}),
    ("rbound", {"lambda_factors": "[1.0, 0.5, 2.0]"}),
    ("rbound", {"lambda0": "0.0"}),   # lambda = 0 lies in no Gamma region
])
def test_cli_exit_3_on_lambda_outside_gamma(tmp_path, command, over):
    # as solve's: every lambda a command solves at is checked first, 0.5 < lambda0
    rc = main([command, "--config", small_cfg(tmp_path, **over), "--out", str(tmp_path)])
    assert rc == 3
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["class"] == "RegionError"
    lam = "0j" if "lambda0" in over else "(0.5+0j)"
    assert rep["error"]["message"].startswith(f"lambda = {lam} outside Gamma region")
    assert rep["verdicts"] == [] and rep["artifacts"] == []


def test_cli_exit_3_on_steep_bent_geometry(tmp_path):
    # GeometryError is a ValueError raised by the solve, not by reading [bent]
    cfgp = small_cfg(tmp_path, amplitude="5.0", width="1.0")
    rc = main(["bent", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 3
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["class"] == "GeometryError"


def test_cli_exit_4_on_verdict_failure(tmp_path):
    cfgp = small_cfg(tmp_path, residual="1e-18")  # the [tolerances] residual
    rc = main(["solve", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 4


def test_cli_evolve(tmp_path):
    rc = main(["evolve", "--config", small_cfg(tmp_path, normal_points="24"),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert (tmp_path / "evolution.csv").exists()
    header = open(tmp_path / "evolution.csv").readline().strip().split(",")
    assert header[0] == "t"


def test_cli_evolve_propagates_the_physical_initial_state(tmp_path):
    from scipy.linalg import expm

    from tests.test_evolution import reference_build_generator

    # the drawn U0 is (eta, u_r, u_N, h): the complex generator in those
    # variables must carry it to the reported norms
    cfgp = small_cfg(tmp_path, normal_points="24")
    rc = main(["evolve", "--config", cfgp, "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    cfg = RunConfig.load(open(cfgp).read(), "evolve", seed=0)
    A = reference_build_generator(cfg.raw["evolve"]["mode_xi"], cfg.fluid, cfg.grids()[1])
    rng = np.random.default_rng(0)
    U0 = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    for row in json.load(open(tmp_path / "report.json"))["result"]["rows"]:
        norm = np.linalg.norm(expm(row["t"] * A) @ U0)
        assert abs(row["norm"] - norm) <= 1e-9 * norm, (row, norm)


@pytest.mark.parametrize("times", ["[0.5]", "[0.1, 0.5, 1.0, 2.0]"],
                         ids=["one_time", "four_times"])
def test_cli_evolve_factors_the_generator_once(tmp_path, monkeypatch, times):
    from resolvlab import evolution

    # a silent fall-back to complex arithmetic passes every verdict: the
    # one eigendecomposition and the one oracle call, for every time, must
    # see the real generator
    eigs, oracles = [], []
    eig, oracle = np.linalg.eig, evolution.matrix_exponential_oracle
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append((a.dtype, eig(a))) or eigs[-1][1])
    monkeypatch.setattr(evolution, "matrix_exponential_oracle",
                        lambda a, *args: oracles.append(a.dtype) or oracle(a, *args))
    rc = main(["evolve", "--config", small_cfg(tmp_path, normal_points="24", times=times),
               "--out", str(tmp_path), "--seed", "0"])
    assert rc == 0
    assert [dtype for dtype, _ in eigs] == [np.float64]
    rep = json.load(open(tmp_path / "report.json"))
    assert len(rep["verdicts"]) == len(rep["result"]["rows"]) == times.count(",") + 1
    assert oracles == [np.float64]
    assert rep["result"]["spectralDistance"] > 0
    # the health margin is the condition number of the eigenvectors used
    vectors = eigs[0][1][1]
    assert rep["result"]["eigenvectorCondition"] == np.linalg.cond(vectors)


def test_cli_rbound(tmp_path):
    rc = main(["rbound", "--config", small_cfg(tmp_path, normal_points="32"),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = json.load(open(tmp_path / "report.json"))
    res = rep["result"]
    assert "seed" not in rep
    assert json.load(open(tmp_path / "rbound.json")) == res
    assert [v["name"] for v in rep["verdicts"]] == ["rbound.solver_finite"]
    assert rep["verdicts"][0]["value"] == res["bound"] and np.isfinite(res["bound"])
    assert [r["lambda"] for r in res["perLambda"]] == [1.0, 1.5, 2.0, 3.0, 5.0, 10.0,
                                                        30.0, 100.0]
    assert res["bound"] == max(r["bound"] for r in res["perLambda"])
    assert {"lambda": res["lambda"], "bound": res["bound"]} in res["perLambda"]
    assert len(res["wavenumber"]) == 1 and -32 <= res["wavenumber"][0] < 32


def test_cli_rbound_2d(tmp_path):
    cfgp = small_cfg(tmp_path, dims="2", tangential_points="8", normal_points="16")
    rc = main(["rbound", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 0
    res = json.load(open(tmp_path / "report.json"))["result"]
    assert np.isfinite(res["bound"]) and res["bound"] > 0
    assert len(res["wavenumber"]) == 2


def test_cli_bent(tmp_path):
    rc = main(["bent", "--config", small_cfg(tmp_path, tangential_points="32",
                                             normal_points="48"),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = open(tmp_path / "bent_history.csv").read().splitlines()
    assert lines[0] == "iter,updateNorm,ratio"
    assert len(lines) >= 3


def test_cli_verify_symbols(tmp_path):
    cfgp = small_cfg(tmp_path)
    rc = main(["verify-symbols", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 0
    scans_out = json.load(open(tmp_path / "symbol_scans.json"))
    assert {r["symbol"] for r in scans_out} >= {"A", "B", "detL_over_N"}


def test_cli_verify_symbols_scans_the_grid_dims(tmp_path):
    cfgp = small_cfg(tmp_path, dims="2", samples="40", symbols='["A", "n11"]')
    rc = main(["verify-symbols", "--config", cfgp, "--out", str(tmp_path)])
    assert rc in (0, 4)
    for rep in json.load(open(tmp_path / "symbol_scans.json")):
        # (kappa, ell) up to |kappa| = 2 over two tangential axes
        assert len(rep["perDerivative"]) == 12
        for d in rep["perDerivative"]:
            assert len(d["kappa"]) == 2 and len(d["argmaxPoint"]["xi"]) == 2


def test_cli_unknown_symbol_is_a_config_error(tmp_path):
    cfgp = small_cfg(tmp_path)
    text = re.sub(r"(?m)^symbols = .*$", 'symbols = ["A", "bogus"]', open(cfgp).read())
    open(cfgp, "w").write(text)
    rc = main(["verify-symbols", "--config", cfgp, "--out", str(tmp_path)])
    assert rc == 2
    rep = json.load(open(tmp_path / "report.json"))
    assert rep["error"]["type"] == "config"
    assert "'bogus'" in rep["error"]["message"]
    assert "detL_over_N" in rep["error"]["message"]
    assert rep["verdicts"] == []


def test_cli_verify_symbols_every_table_symbol(tmp_path):
    from resolvlab.symbols import SYMBOLS

    cfgp = small_cfg(tmp_path)
    listed = ", ".join(f'"{s}"' for s in SYMBOLS)
    text = re.sub(r"(?m)^symbols = .*$", f"symbols = [{listed}]", open(cfgp).read())
    open(cfgp, "w").write(text.replace("samples = 2000", "samples = 100"))
    rc = main(["verify-symbols", "--config", cfgp, "--out", str(tmp_path), "--threads", "2"])
    assert rc in (0, 4)
    reps = json.load(open(tmp_path / "symbol_scans.json"))
    assert [r["symbol"] for r in reps] == list(SYMBOLS)
    for r in reps:
        assert all(np.isfinite(d["worstRatio"]) for d in r["perDerivative"])
        assert np.isfinite(r["refinedWorstRatio"])
        assert ("decayConstant" in r) == (r["symbol"] == "exp_BxN")
    verdicts = json.load(open(tmp_path / "report.json"))["verdicts"]
    assert all(v["passed"] for v in verdicts if v["name"].endswith(".finite"))


@pytest.mark.parametrize("command", ["scan-nab", "solve", "verify-symbols", "rbound",
                                     "evolve", "bent"])
def test_cli_determinism_modulo_walltime(tmp_path, monkeypatch, command):
    # report.json minus wallTime and every artifact are the same whatever
    # --threads says.  verify-symbols forks two workers with --threads 2 (two
    # CPUs on any machine), and no worker outlives the command.
    import multiprocessing

    from resolvlab import scans

    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    cfgp = small_cfg(tmp_path)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        rc = main([command, "--config", cfgp, "--out", str(out),
                   "--seed", "1", "--threads", threads])
        assert rc == 0
        assert multiprocessing.active_children() == []
        rep = json.load(open(out / "report.json"))
        rep.pop("wallTime")
        assert rep["artifacts"]
        runs.append([canonical_json(rep)]
                    + [open(out / name, "rb").read() for name in rep["artifacts"]])
    assert runs[0] == runs[1]


def test_cli_verify_symbols_worker_failure_exits_3(tmp_path, monkeypatch):
    # a numerical failure in a forked worker exits 3 with its class, and no
    # worker outlives the command
    import multiprocessing

    from resolvlab import scans
    from resolvlab.symbols import SingularSymbolError

    monkeypatch.setattr(scans.os, "cpu_count", lambda: 2)
    cfgp = small_cfg(tmp_path)
    evaluate = scans.evaluate_symbols

    def singular_in_workers(*args):
        if multiprocessing.parent_process() is not None:
            raise SingularSymbolError("N fell below its floor")
        return evaluate(*args)

    monkeypatch.setattr(scans, "evaluate_symbols", singular_in_workers)
    out = tmp_path / "failed"
    rc = main(["verify-symbols", "--config", cfgp, "--out", str(out), "--threads", "2"])
    assert rc == 3
    assert json.load(open(out / "report.json"))["error"]["class"] == "SingularSymbolError"
    assert multiprocessing.active_children() == []


def run_python(code):
    """Run code in a cold interpreter that imports this checkout's resolvlab."""
    import subprocess
    import sys

    import resolvlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(resolvlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)


def test_cli_import_does_not_load_scipy(tmp_path):
    # no command needs scipy, evolve included; only a verify-symbols run on
    # workers loads multiprocessing, and no command loads concurrent
    cfgp = small_cfg(tmp_path, normal_points="24")
    code = ("import sys, resolvlab.cli; "
            "loaded = lambda: sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'multiprocessing', 'concurrent'))); "
            "print(loaded()); "
            f"rc = resolvlab.cli.main(['evolve', '--config', {cfgp!r}, "
            f"'--out', {str(tmp_path)!r}, '--seed', '0']); "
            "print(rc, loaded(), file=sys.stderr)")
    out = run_python(code)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stderr.strip() == "0 []"


# the layers each command runs: importing resolvlab.cli loads none of them,
# and a command loads its own alone
LAYERS = ("bent", "evolution", "fieldio", "halfspace", "scans", "verification")
COMMAND_LAYERS = {
    "solve": ["fieldio", "halfspace", "verification"],
    "verify-symbols": ["scans"],
    "scan-nab": ["scans"],
    "rbound": ["halfspace"],
    "evolve": ["evolution", "fieldio", "halfspace"],
    "bent": ["bent", "fieldio", "halfspace"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_cli_command_loads_only_its_own_layers(tmp_path, command):
    cfgp = small_cfg(tmp_path, samples="40", tangential_points="16", normal_points="16")
    code = ("import sys, resolvlab.cli\n"
            f"layers = lambda: [m for m in {LAYERS!r} if 'resolvlab.' + m in sys.modules]\n"
            "print(layers())\n"
            f"rc = resolvlab.cli.main([{command!r}, '--config', {cfgp!r}, "
            f"'--out', {str(tmp_path)!r}, '--threads', '1'])\n"
            "print(rc, layers())\n")
    out = run_python(code).stdout.splitlines()
    assert out[0] == "[]"
    rc, loaded = out[-1].split(" ", 1)
    assert rc in ("0", "4")
    assert loaded == str(COMMAND_LAYERS[command])


def test_cli_exit_3_names_each_layers_error_class(tmp_path):
    # the CLI imports no layer's error classes: their common base
    # NumericalError still maps each to exit 3 with its name, in a cold
    # process.  The floors are raised last, after the cases they would break.
    cases = [
        ("solve", {"width": "4.0"}, "", "SolverError"),         # data reach the box edge
        ("solve", {"lambda_re": "0.5"}, "", "RegionError"),     # below lambda0
        ("evolve", {"angle": "1.2", "offset": "0.2"}, "", "ContourError"),
        ("bent", {"amplitude": "5.0", "width": "1.0"}, "", "GeometryError"),
        ("scan-nab", {"samples": "200"}, "resolvlab.scans.N_FLOOR = 1e300", "ScanError"),
        ("rbound", {}, "resolvlab.symbols.N_FLOOR = 1e300", "SingularSymbolError"),
    ]
    code = ["import json, resolvlab.cli, resolvlab.scans, resolvlab.symbols"]
    for i, (command, over, patch, _) in enumerate(cases):
        out = tmp_path / str(i)
        out.mkdir()
        cfgp = small_cfg(out, normal_points="16", **over)
        code += [patch,
                 f"rc = resolvlab.cli.main([{command!r}, '--config', {cfgp!r}, "
                 f"'--out', {str(out)!r}, '--seed', '0'])",
                 f"print(rc, json.load(open({str(out / 'report.json')!r}))['error']['class'])"]
    out = run_python("\n".join(code)).stdout.splitlines()
    assert out == [f"3 {cls}" for *_, cls in cases]


def test_cli_evolve_reports_the_contour_path(tmp_path):
    # at 16 nodes sigma = 1e-8 is a coupling tiny enough that the
    # eigendecomposition's residual is 23x above rounding: every node takes
    # a dense solve, and the report says so
    for sigma, path in (("1.0", "eigenvectors"), ("1e-8", "dense")):
        cfgp = small_cfg(tmp_path, normal_points="16", sigma=sigma)
        rc = main(["evolve", "--config", cfgp, "--out", str(tmp_path), "--seed", "0"])
        assert rc == 0
        assert json.load(open(tmp_path / "report.json"))["result"]["contourPath"] == path
