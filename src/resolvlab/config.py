"""Run configuration: a small sectioned key-value dialect with round-trip.

Format (see configs/baseline.cfg for the annotated example):

    # comment
    [section]
    key = value        # trailing comments allowed

Values: integers, floats (1e-3, inf), booleans true/false, quoted
strings, and [v1, v2, ...] lists of scalars.  parse_config and
dumps_config round-trip; config_hash fingerprints the parsed content,
so formatting and comments never change the hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .grids import NormalGrid, TangentialGrid
from .regions import FluidParams, SectorSpec, check_zeta_case


class ConfigError(ValueError):
    pass


@contextmanager
def config_section(name: str):
    """Report a ValueError or TypeError raised while reading [name] as a ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid [{name}]: {exc}") from exc


def config_int(value) -> int:
    """An integer config value; a bool, a string or a non-integral number is a ValueError."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return json.loads(tok)
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {tok!r}") from exc


def parse_config(text: str) -> dict:
    out: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            out.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if val.startswith("[") and val.endswith("]"):
            body = val[1:-1].strip()
            out[section][key] = [] if not body else \
                [_parse_scalar(t) for t in body.split(",")]
        else:
            out[section][key] = _parse_scalar(val)
    return out


def _format_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, str):
        return json.dumps(v)
    raise ConfigError(f"unsupported value type {type(v)}")


def dumps_config(cfg: dict) -> str:
    lines = []
    for section, body in cfg.items():
        lines.append(f"[{section}]")
        for key, val in body.items():
            if isinstance(val, list):
                lines.append(f"{key} = [{', '.join(_format_scalar(v) for v in val)}]")
            else:
                lines.append(f"{key} = {_format_scalar(val)}")
        lines.append("")
    return "\n".join(lines)


def canonical_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    def enc(o):
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, int):
            return str(o)
        if isinstance(o, float):
            if math.isnan(o) or math.isinf(o):
                return json.dumps(str(o))
            return f"{o:.17g}"
        if isinstance(o, complex):
            return enc({"im": o.imag, "re": o.real})
        if isinstance(o, str):
            return json.dumps(o)
        if o is None:
            return "null"
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(enc(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: kv[0])
            return "{" + ",".join(json.dumps(str(k)) + ":" + enc(v)
                                  for k, v in items) + "}"
        if hasattr(o, "item"):
            return enc(o.item())
        raise TypeError(f"cannot serialize {type(o)}")
    return enc(obj)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


REQUIRED_BLOCKS = {
    "solve": ("fluid", "sector", "grid", "solve"),
    "verify-symbols": ("fluid", "sector", "scan"),
    "scan-nab": ("fluid", "sector", "nab"),
    "rbound": ("fluid", "sector", "grid", "rbound"),
    "evolve": ("fluid", "grid", "contour", "evolve"),
    "bent": ("fluid", "sector", "grid", "bent"),
}

# The seed of each command that draws random numbers when neither --seed
# nor its own block sets one.
DEFAULT_SEEDS = {"verify-symbols": 0, "scan-nab": 0, "evolve": 0}


@dataclass
class RunConfig:
    raw: dict
    fluid: FluidParams
    sector: SectorSpec | None
    seed: int | None
    tolerances: dict

    @classmethod
    def load(cls, text: str, command: str, seed=None) -> "RunConfig":
        cfg = parse_config(text)
        blocks = REQUIRED_BLOCKS[command]
        missing = [b for b in blocks if b not in cfg]
        if missing:
            raise ConfigError(f"missing required block(s) {missing} for {command}")

        f = cfg.get("fluid", {})
        with config_section("fluid"):
            fluid = FluidParams(
                mu=float(f.get("mu", 1.0)), nu=float(f.get("nu", 1.0)),
                sigma=float(f.get("sigma", 1.0)), m=float(f.get("m", 1.0)),
                gamma1=float(f.get("gamma1", 1.0)), gamma3=float(f.get("gamma3", 1.0)),
                zeta=complex(float(f.get("zeta_re", 0.0)), float(f.get("zeta_im", 0.0))),
                zeta0=float(f.get("zeta0", 1.0)),
                rho1=float(f.get("rho1", f.get("gamma1", 1.0))),
                rho2=float(f.get("rho2", f.get("gamma1", 1.0))),
                rho3=float(f.get("rho3", f.get("gamma3", 1.0))),
            )

        sector = None
        if "sector" in cfg:
            s = cfg["sector"]
            with config_section("sector"):
                sector = SectorSpec(
                    epsilon=float(s.get("epsilon", math.pi / 4)),
                    lambda0=float(s.get("lambda0", 1.0)),
                    zeta_case=s.get("zeta_case", "C3"),
                    rho3_over_nu=fluid.rho3 / fluid.nu)
                check_zeta_case(sector, fluid)

        # the command's own block is the last of its required blocks
        run_seed = seed if seed is not None else \
            cfg[blocks[-1]].get("seed", DEFAULT_SEEDS.get(command))
        with config_section(blocks[-1]):
            if run_seed is not None:
                run_seed = config_int(run_seed)
                if run_seed < 0:
                    raise ValueError(f"seed must be non-negative, got {run_seed}")

        with config_section("tolerances"):
            tol = {k: float(v) for k, v in cfg.get("tolerances", {}).items()}
        return cls(raw=cfg, fluid=fluid, sector=sector, seed=run_seed, tolerances=tol)

    def grids(self):
        g = self.raw.get("grid", {})
        with config_section("grid"):
            tg = TangentialGrid(dims=config_int(g.get("dims", 1)),
                                points=config_int(g.get("tangential_points", 64)),
                                half_length=float(g.get("half_length", 8.0)))
            ng = NormalGrid(points=config_int(g.get("normal_points", 96)),
                            truncation=float(g.get("truncation", 20.0)))
        return tg, ng
