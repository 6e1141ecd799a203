"""Batch front end: config in, JSON report and CSV/binary artifacts out.

    resolvlab <command> --config cfg [--out DIR] [--seed N] [--threads N]

Commands: solve, verify-symbols, scan-nab, rbound, evolve, bent.
Every run writes report.json with {command, configHash, gitDescribe,
wallTime, verdicts, ...}; exit status is 0 when all verdicts pass,
2 on configuration errors, 3 on numerical failures (an
errors.NumericalError, which every layer's error classes subclass, or a
LinAlgError; the report names the class, RegionError for a lambda of
solve, bent or rbound outside Gamma(eps, lam0, zeta)), 4 on verdict
failures.  Each command imports the layers it runs when it runs, so a
process loads and compiles only its own command's modules.  solve,
rbound and bent draw no random numbers.  Identical config + seed
reproduce report.json byte for byte, except for the wallTime field, at
a fixed BLAS thread count (say OPENBLAS_NUM_THREADS=1): BLAS sums in an
order that depends on it, which moves the last digits of solve's
residuals, worstMode and fields, of evolve's result and of bent's
ratios and residuals.  rbound, scan-nab and verify-symbols wrote the
same bytes on 1 and 2 threads (configs/baseline.cfg).
--threads sets the number of forked workers of verify-symbols, which run
its sampled pass and its ascents (scans.multiplier_class_scan), and
nothing else: every other command runs in one process, and no output
depends on it.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time

import numpy as np

from .config import (ConfigError, RunConfig, canonical_json, config_hash, config_int,
                     config_section)
from .errors import NumericalError
from .grids import BoundaryField, HalfSpaceField
from .regions import RegionError, in_gamma_region


def __getattr__(name):
    # cli.solve_full_resolvent was a module attribute while cli imported
    # every layer at start-up; resolvbench's tracer test still reads it, so
    # it resolves to halfspace's (possibly traced) function on first use
    if name == "solve_full_resolvent":
        from .halfspace import solve_full_resolvent
        return solve_full_resolvent
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _verdict(name, passed, value, tolerance):
    return {"name": name, "passed": passed, "value": value, "tolerance": tolerance}


def _at_least_one(key, value):
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def _check_in_gamma(cfg: RunConfig, *lams):
    """Raise RegionError unless each lambda lies in the config's Gamma(eps, lam0, zeta)."""
    for lam in lams:
        if not in_gamma_region(lam, cfg.sector, cfg.fluid):
            raise RegionError(f"lambda = {complex(lam)} outside Gamma region {cfg.sector}")


def _builtin_gaussian_data(tg, ng, block):
    from .halfspace import ResolventData

    if tg.dims != 1:
        raise ConfigError(f"invalid [grid]: the built-in solve data are 1-D, "
                          f"got dims = {tg.dims}")
    with config_section("solve"):
        amp = float(block.get("amplitude", 1.0))
        wx = float(block.get("width", 1.0))
    x = tg.x
    t = ng.nodes

    def bump(w_x, w_t, x0):
        return (amp * np.exp(-((x - x0) ** 2) / (2 * w_x**2))[:, None]
                * np.exp(-(t**2) / (2 * w_t**2))[None, :])

    d = HalfSpaceField((0.5 * bump(wx, 2.0, 0.5))[..., None].astype(complex), tg, ng)
    F = HalfSpaceField(np.stack([bump(wx, 1.5, -0.4), 0.7 * bump(0.9 * wx, 2.5, 0.4)],
                                axis=-1).astype(complex), tg, ng)
    gb = amp * np.exp(-(x**2) / (2 * wx**2))
    G = BoundaryField(np.stack([0.3 * gb, -0.6 * gb], axis=-1).astype(complex), tg)
    K = BoundaryField((0.8 * amp * np.exp(-((x - 0.3) ** 2) / (2 * wx**2)))
                      .astype(complex), tg)
    return ResolventData(d=d, F=F, G=G, K=K)


# ---------------------------------------------------------------------------
# command implementations: each returns (verdicts, payload, artifacts)
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig, out_dir, threads):
    from . import fieldio, verification
    from .halfspace import extend_height, solve_full_resolvent

    tg, ng = cfg.grids()
    block = cfg.raw.get("solve", {})
    with config_section("solve"):
        lam = complex(float(block.get("lambda_re", 4.0)),
                      float(block.get("lambda_im", 0.0)))
    _check_in_gamma(cfg, lam)
    data = _builtin_gaussian_data(tg, ng, block)
    sol = solve_full_resolvent(data, cfg.fluid, lam)
    tol = cfg.tolerances.get("residual", 1e-6)
    rep = verification.pde_residual(sol, data, cfg.fluid, lam)
    verdicts = [_verdict(f"residual.{k}", v <= tol, v, tol)
                for k, v in rep.relative.items()]
    artifacts = []
    h_ext = extend_height(sol.h.values[..., 0], tg, ng)
    for name, fld in (("u", sol.u), ("eta", sol.eta), ("h_ext", h_ext)):
        base = os.path.join(out_dir, name)
        fieldio.field_to_csv(fld, base + ".csv")
        fieldio.field_to_binary(fld, base + ".bin")
        artifacts += [name + ".csv", name + ".bin", name + ".bin.json"]
    payload = {"lambda": lam, "residuals": rep.relative,
               "worstMode": rep.worst_mode}
    return verdicts, payload, artifacts


def cmd_verify_symbols(cfg: RunConfig, out_dir, threads):
    """Multiplier-class scan of the [scan] symbols, all from one shared pass.

    scans.multiplier_class_scan draws one nested set of 2n samples
    (n = [scan] samples) of (lambda, xi') with xi' in [grid] dims
    dimensions, and evaluates the symbol kernels once per chunk of stencil
    points for all the symbols.  Per symbol it estimates the worst ratio
    from the n-set plus local ascents from its worst samples, and repeats
    the estimate on all 2n, reusing the n-set ascents.  The ascents of all
    the symbols run in lock-step: each poll evaluates every symbol's new
    points in turn, skipping the points a start already rated (a poll
    clipped back onto the start, or the point it just left), and no
    kernel call takes more than scans.STENCIL_CHUNK_POINTS points.
    scan.<symbol>.finite checks that every worst ratio is finite;
    scan.<symbol>.refinement that the estimate grew by less than
    tolerances.refinement_growth from n to 2n samples, i.e. that the sup
    estimate has converged.  With threads > 1 the sampled pass and the
    ascents run on that many forked processes, at most one per CPU and
    task (scans.worker_count), each ascending one group of symbols: they
    are small array operations that hold the interpreter lock, so threads
    would not overlap them.  Results do not depend on threads, nor on
    which other symbols are scanned alongside.  The symbols and their
    classes are symbols.SYMBOLS.
    """
    from . import scans
    from .symbols import SYMBOLS

    block = cfg.raw.get("scan", {})
    symbols = list(block.get("symbols", [s for s, c in SYMBOLS.items() if c.default]))
    unknown = [s for s in symbols if s not in SYMBOLS]
    if unknown:
        raise ConfigError(f"invalid [scan]: unknown symbol(s) {unknown}; "
                          f"known: {list(SYMBOLS)}")
    with config_section("scan"):
        if not symbols:
            raise ValueError("symbols is empty")
        n = _at_least_one("samples", config_int(block.get("samples", 10_000)))
    growth_cap = cfg.tolerances.get("refinement_growth", 0.05)

    plan = scans.SamplingPlan(n_samples=n, seed=cfg.seed, dims=cfg.grids()[0].dims)
    reports = scans.multiplier_class_scan(symbols, cfg.sector, plan, cfg.fluid,
                                          workers=threads)
    verdicts = []
    for rep in reports:
        finite = all(np.isfinite(d["worstRatio"]) for d in rep["perDerivative"])
        verdicts.append(_verdict(f"scan.{rep['symbol']}.finite", finite,
                                 rep["worstRatio"], math.inf))
        verdicts.append(_verdict(f"scan.{rep['symbol']}.refinement",
                                 rep["refinementGrowth"] < growth_cap,
                                 rep["refinementGrowth"], growth_cap))
    with open(os.path.join(out_dir, "symbol_scans.json"), "w") as fh:
        fh.write(canonical_json(reports))
    return verdicts, {"symbols": symbols, "samples": n}, ["symbol_scans.json"]


def cmd_scan_nab(cfg: RunConfig, out_dir, threads):
    from . import scans

    block = cfg.raw.get("nab", {})
    with config_section("nab"):
        n = _at_least_one("samples", config_int(block.get("samples", 100_000)))
    rep = scans.nab_lower_bound_scan(cfg.fluid, cfg.sector, n, seed=cfg.seed)
    lam0_max = cfg.tolerances.get("lambda0_max", 100.0)
    c_min = cfg.tolerances.get("c_min", 1e-6)
    verdicts = [
        _verdict("nab.lambda0", rep["lambda0Found"] <= lam0_max,
                 rep["lambda0Found"], lam0_max),
        _verdict("nab.constant", rep["cFound"] > c_min, rep["cFound"], c_min),
    ]
    with open(os.path.join(out_dir, "nab_scan.json"), "w") as fh:
        fh.write(canonical_json(rep))
    return verdicts, rep, ["nab_scan.json"]


def cmd_rbound(cfg: RunConfig, out_dir, threads):
    """The l2 R-bound of lam^(j/2) A(lam) over lam = lambda0 * lambda_factors.

    A(lam) maps the surface datum k to the velocity of the surface-coupled
    solve.  In a Hilbert space the R-bound of a family is the sup of its
    operator norms, and A(lam) is diagonal in the tangential modes, so the
    bound is the largest RMS, over x_N and components, of one mode's
    profile at khat = 1: verification.rbound_estimate's quotient for the
    singleton family {lam^(j/2) A(lam)} and that mode's unit vector.
    """
    from .halfspace import solve_surface_homogeneous

    tg, ng = cfg.grids()
    block = cfg.raw.get("rbound", {})
    with config_section("rbound"):
        factors = [float(f) for f in block.get(
            "lambda_factors", [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0])]
        if not factors:
            raise ValueError("lambda_factors must not be empty")
        j_weight = config_int(block.get("j_weight", 1))
    k = BoundaryField(np.ones(tg.mode_shape), tg, "spectral")
    lams = cfg.sector.lambda0 * np.array(factors)
    _check_in_gamma(cfg, *lams)
    rms = []
    for lam in lams:
        u = solve_surface_homogeneous(k, cfg.fluid, lam, ng)[0].values
        rms.append(np.sqrt(np.mean(np.abs(lam ** (j_weight / 2.0) * u) ** 2, axis=(-2, -1))))
    rms = np.reshape(rms, (lams.size, -1))
    maxima = rms.max(axis=1)   # np.max keeps a NaN visible to the verdict
    j = int(maxima.argmax())
    mode = np.unravel_index(int(rms[j].argmax()), tg.mode_shape)
    payload = {"bound": float(maxima[j]), "lambda": float(lams[j]),
               "wavenumber": [int(k) for k in tg.wavenumbers[mode]],
               "perLambda": [{"lambda": float(lam), "bound": float(m)}
                             for lam, m in zip(lams, maxima)]}
    verdicts = [_verdict("rbound.solver_finite", bool(np.isfinite(payload["bound"])),
                         payload["bound"], math.inf)]
    with open(os.path.join(out_dir, "rbound.json"), "w") as fh:
        fh.write(canonical_json(payload))
    return verdicts, payload, ["rbound.json"]


def cmd_evolve(cfg: RunConfig, out_dir, threads):
    from . import evolution, fieldio

    tg, ng = cfg.grids()
    cblock = cfg.raw.get("contour", {})
    eblock = cfg.raw.get("evolve", {})
    with config_section("contour"):
        spec = evolution.ContourSpec(
            angle=float(cblock.get("angle", 0.7)),
            offset=float(cblock.get("offset", 1.0)),
            nodes=config_int(cblock.get("nodes", 48)))
    with config_section("evolve"):
        xi = float(eblock.get("mode_xi", 0.5))
        times = [float(t) for t in eblock.get("times", [0.1, 0.5, 1.0, 2.0])]
        if not (times and all(t > 0 for t in times)):
            raise ValueError(f"times must be non-empty and positive, got {times}")
    gen = evolution.build_generator(xi, cfg.fluid, ng)
    rng = np.random.default_rng(cfg.seed)
    U0 = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    U0 = U0 * gen.phase.conj()   # physical -> the real generator's variables, norm kept
    tol = cfg.tolerances.get("evolve_rel", 1e-6)

    states, margin, condition, path = evolution.propagate_contour(
        gen.matrix, U0, times, spec, region=cfg.sector)
    exacts = evolution.matrix_exponential_oracle(gen.matrix, U0, times)
    rows = []
    for t, approx, exact in zip(times, states, exacts):
        rel = float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        rows.append({"t": t, "rel_err": rel, "norm": float(np.linalg.norm(approx))})
    verdicts = [_verdict(f"evolve.t={r['t']:g}", r["rel_err"] <= tol, r["rel_err"], tol)
                for r in rows]
    fieldio.write_csv_table(os.path.join(out_dir, "evolution.csv"),
                            ["t", "rel_err", "norm"],
                            [(r["t"], r["rel_err"], r["norm"]) for r in rows])
    payload = {"dim": gen.dim, "rows": rows, "spectralDistance": margin,
               "eigenvectorCondition": condition, "contourPath": path}
    return verdicts, payload, ["evolution.csv"]


def cmd_bent(cfg: RunConfig, out_dir, threads):
    from . import bent, fieldio

    tg, ng = cfg.grids()
    if tg.dims != 1:
        raise ConfigError(f"invalid [grid]: the bent half space is 1-D, got dims = {tg.dims}")
    block = cfg.raw.get("bent", {})
    with config_section("bent"):
        spec = bent.DiffeoSpec(amplitude=float(block.get("amplitude", 0.05)),
                               width=float(block.get("width", 2.0)))
        lam = complex(float(block.get("lambda_re", 16.0)),
                      float(block.get("lambda_im", 0.0)))
        max_iter = config_int(block.get("max_iter", 40))
        tol = float(block.get("tol", 1e-9))
    _check_in_gamma(cfg, lam)

    def f(x1, x2):
        env = np.exp(-(x1**2) / 2 - (x2**2) / 4)
        return np.stack([env, 0.5 * env], axis=-1)

    def g(x1, x2):
        env = np.exp(-(x1**2) / 2)
        return np.stack([0.3 * env, -0.8 * env], axis=-1)

    def k(x1, x2):
        return 0.9 * np.exp(-((x1 - 0.2) ** 2) / 2)

    v, h, state = bent.neumann_solve(
        f, g, k, spec, cfg.fluid, lam, tg, ng, max_iter=max_iter, tol=tol)
    ratio = max(state.ratios) if state.ratios else 0.0
    res_tol = cfg.tolerances.get("bent_residual", 1e-6)
    verdicts = [
        _verdict("bent.converged", state.converged, float(state.iterations),
                 float(max_iter)),
        _verdict("bent.contraction", ratio < 0.5, ratio, 0.5),
    ]
    verdicts += [_verdict(f"bent.residual.{name}", val <= res_tol, val, res_tol)
                 for name, val in state.residuals.items()]
    rows = []
    for i, upd in enumerate(state.update_norms):
        r = state.ratios[i - 1] if 0 < i <= len(state.ratios) else 0.0
        rows.append((i + 1, float(upd), float(r)))
    fieldio.write_csv_table(os.path.join(out_dir, "bent_history.csv"),
                            ["iter", "updateNorm", "ratio"], rows)
    payload = {"iterations": state.iterations, "ratios": state.ratios,
               "residuals": state.residuals}
    return verdicts, payload, ["bent_history.csv"]


COMMANDS = {
    "solve": cmd_solve,
    "verify-symbols": cmd_verify_symbols,
    "scan-nab": cmd_scan_nab,
    "rbound": cmd_rbound,
    "evolve": cmd_evolve,
    "bent": cmd_bent,
}


def write_report(out_dir, report):
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(canonical_json(report) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="resolvlab", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=".")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker processes for verify-symbols' sampled pass and "
                         "ascents; no other command reads it")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    started = time.time()
    report = {"command": args.command, "gitDescribe": git_describe(),
              "verdicts": [], "artifacts": []}

    def fail(error, label, status):
        report["error"] = error
        report["wallTime"] = time.time() - started
        write_report(args.out, report)
        print(f"{label}: {error['message']}", file=sys.stderr)
        return status

    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = RunConfig.load(text, args.command, seed=args.seed)
        report["configHash"] = config_hash(cfg.raw)
        if cfg.seed is not None:
            report["seed"] = cfg.seed
    except (OSError, ConfigError) as exc:
        return fail({"type": "config", "message": str(exc)}, "config error", 2)

    try:
        verdicts, payload, artifacts = COMMANDS[args.command](cfg, args.out,
                                                              args.threads)
        report["verdicts"] = verdicts
        report["result"] = payload
        report["artifacts"] = artifacts
    except ConfigError as exc:
        return fail({"type": "config", "message": str(exc)}, "config error", 2)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return fail({"type": "numerical", "class": type(exc).__name__,
                     "message": str(exc)}, "numerical failure", 3)

    report["wallTime"] = time.time() - started
    write_report(args.out, report)
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    for v in report["verdicts"]:
        status = "PASS" if v["passed"] else "FAIL"
        print(f"{status} {v['name']}: {v['value']:.6g} (tol {v['tolerance']:.6g})")
    if failed:
        print(f"verdict failure: {failed}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
