"""Benchmark-owned cold processes: the set-up probe and the traced runner.

    python3 resolvbench/child.py setup CONFIG COMMAND...
    python3 resolvbench/child.py traced SPANS_JSON cli <resolvlab arguments...>
    python3 resolvbench/child.py traced SPANS_JSON solve2d <solve2d arguments...>

``setup`` imports what the commands import and loads their config, and
does nothing else.  ``traced`` times the import, wraps the layer
functions in LAYERS (and every alias of them) in spans, runs the command
inside a root span and writes the spans, counters and import time to
SPANS_JSON when the command ends.  It exits with the command's status.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time

from tracer import Tracer, install

# Traced functions per resolvlab module: each gives <module>.<path>.calls
# and .self_s.  RunConfig.load is traced for config.load_s only.
LAYERS = {
    "symbols": ("core_values", "lopatinski_values", "njk_values", "q_values"),
    "scans": ("multiplier_class_scan", "nab_lower_bound_scan", "draw_samples"),
    "halfspace": ("solve_lame_bvp", "solve_surface_homogeneous",
                  "surface_mode_profiles", "solve_full_resolvent"),
    "verification": ("pde_residual", "rbound_estimate"),
    "evolution": ("build_generator", "propagate_contour", "matrix_exponential_oracle"),
    "bent": ("neumann_solve", "apply_perturbation", "bent_residual"),
    "fieldio": ("field_to_csv", "field_to_binary"),
    "grids": ("TangentialGrid.forward", "TangentialGrid.inverse"),
    "config": ("RunConfig.load",),
}
CONFIG_SPAN = "config.RunConfig.load"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs, out):
    import numpy as np  # already loaded by resolvlab; kept out of the timed import

    lam, xi_sq = _arg(args, kwargs, 0, "lam"), _arg(args, kwargs, 1, "xi_sq")
    return {"symbols.points": math.prod(np.broadcast_shapes(np.shape(lam), np.shape(xi_sq)))}


def _file_bytes(args, kwargs, out):
    path = _arg(args, kwargs, 1, "path")
    sidecar = path + ".json"
    extra = os.path.getsize(sidecar) if os.path.exists(sidecar) else 0
    return {"fieldio.bytes": os.path.getsize(path) + extra}


# Counters added at the wrapped calls: name -> (args, kwargs, result) -> increments.
COUNTERS = {
    "symbols.core_values": _points,
    "scans.draw_samples": lambda a, k, out: {"scans.samples": len(out[0])},
    "halfspace.solve_lame_bvp": lambda a, k, out: {
        "halfspace.solve_lame_bvp.modes":
            math.prod(_arg(a, k, 0, "F").tgrid.mode_shape)},
    "evolution.propagate_contour": lambda a, k, out: {
        "evolution.resolvent_solves": _arg(a, k, 3, "contour").nodes},
    "bent.neumann_solve": lambda a, k, out: {"bent.iterations": out[2].iterations},
    "fieldio.field_to_csv": _file_bytes,
    "fieldio.field_to_binary": _file_bytes,
}


def layer_targets():
    """``(module, path, span_name, count)`` for every LAYERS entry."""
    out = []
    for mod_name, paths in LAYERS.items():
        module = importlib.import_module(f"resolvlab.{mod_name}")
        for path in paths:
            name = f"{mod_name}.{path}"
            out.append((module, path, name, COUNTERS.get(name)))
    return out


def resolvlab_modules():
    return [m for name, m in sys.modules.items()
            if name == "resolvlab" or name.startswith("resolvlab.")]


def setup(config: str, commands: list[str]) -> None:
    import resolvlab.cli

    for command in commands:
        if command == "solve-2d":
            import solve2d
            text, command = solve2d.config_text(config), "solve"
        else:
            with open(config) as fh:
                text = fh.read()
        resolvlab.cli.RunConfig.load(text, command)


def traced(spans_path: str, target: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    entry = importlib.import_module("resolvlab.cli" if target == "cli" else "solve2d")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    # layer_targets imports every traced module now, so that one the command
    # would import lazily is wrapped too; that import counts as overhead.
    install(tracer, layer_targets(), resolvlab_modules() + [entry])
    root = tracer.begin(f"{target}.main")
    try:
        return entry.main(argv)
    finally:
        tracer.end(root)
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) >= 3:
        setup(argv[1], argv[2:])
        return 0
    if argv[:1] == ["traced"] and len(argv) >= 3 and argv[2] in ("cli", "solve2d"):
        return traced(argv[1], argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
