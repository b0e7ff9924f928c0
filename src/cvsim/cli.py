"""Batch command-line front end.

Emits machine-readable sweep data (CSV or JSON) for entanglement
degradation, teleportation fidelity, separability thresholds, a single
teleportation run, and state validity reports.

Grids are given as "lo:hi:num" (inclusive linspace), a comma list
"0.1,0.2,0.5", or a single number.  Exit codes: 0 success, 2 malformed
request, 3 numerical-validity failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import entanglement as ent
from .channels import FiberParams, degraded_tmsv
from .states import classicality_test, squeezed_signal
from .symplectic import symplectic_eigenvalues, validate_covariance
from .teleportation import TeleportSetup, pure_squeezed_fidelity, teleport

SCHEMA_VERSION = 1

# The value flags each command reads, with their defaults; the key order is
# the order of the JSON "parameters" echo.
_DEFAULTS = {
    "entanglement-sweep": {"zeta": "1.0", "length": "0:2:81", "absorption_length": 1.0},
    "fidelity-sweep": {"zeta": "0:1.5:16", "eta": "0:1.5:16"},
    "separability": {"zeta": "0.1:1.0:10", "t2": "0.5", "r2": "0.0", "nth": "0.1", "absorption_length": 1.0},
    "teleport": {"zeta": "0.5", "eta": "0.5", "t2": "1.0", "r2": "0.0", "nth": "0.0"},
    "check-state": {"zeta": "0.5", "t2": "1.0", "r2": "0.0", "nth": "0.0"},
}

_HELP = {
    "zeta": "TMSV squeezing (value or grid)",
    "eta": "signal squeezing (value or grid)",
    "t2": "|T|^2 power transmission",
    "r2": "|R|^2 power reflection",
    "nth": "mean thermal photon number",
    "length": "fiber length (value or grid)",
    "absorption_length": "Lambert-Beer absorption length",
}

# Common flags: their defaults, and the values the enumerated ones accept.
_COMMON = {"log_base": "e", "format": "csv", "seed": None}
_CHOICES = {"log_base": ("e", "2"), "format": ("csv", "json")}

_BASE_LABEL = {"e": "ln", "2": "log2"}

# The C encoder (indent= turns it off) with the depth-2 item separator of indent=2; it
# escapes newlines in strings, so for a list of flat lists "],\n      [" only joins rows.
_ROWS = json.JSONEncoder(separators=(",\n      ", ": ")).encode


class SpecError(ValueError):
    """Malformed request: bad flag value, bad grid, bad config."""


def parse_grid(text) -> np.ndarray:
    """Parse "lo:hi:num", "a,b,c" or a single number into a float array
    of finite values."""
    text = str(text).strip()
    try:
        if ":" in text:
            lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            if num < 1:
                raise ValueError
            # linspace warns on a non-finite end or span, so those go to the check below
            grid = np.linspace(lo, hi, num) if math.isfinite(hi - lo) else np.array([hi - lo])
        elif "," in text:
            grid = np.array([float(tok) for tok in text.split(",") if tok.strip()])
        else:
            grid = np.array([float(text)])
    except ValueError as exc:
        raise SpecError(f"cannot parse grid {text!r}") from exc
    if not np.all(np.isfinite(grid)):
        raise SpecError(f"grid {text!r} has a non-finite value")
    return grid


def _check_grid(grid: np.ndarray, name: str) -> np.ndarray:
    if grid.size == 0:
        raise SpecError(f"{name} grid is empty")
    if np.any(np.diff(grid) < 0):
        raise SpecError(f"{name} grid must be monotone non-decreasing")
    return grid


def _scalar(grid: np.ndarray, name: str) -> float:
    if grid.size != 1:
        raise SpecError(f"{name} must be a single value for this command")
    return float(grid[0])


def _request(build, **point):
    """``build()``; a ValueError, raised for an input outside the domain of
    what it builds, is a malformed request, its message prefixed by the grid
    ``point`` as name=value pairs, formatted only then."""
    try:
        return build()
    except ValueError as exc:
        where = ", ".join(f"{name}={value!r}" for name, value in point.items())
        raise SpecError(f"{where}: {exc}" if point else str(exc)) from exc


def load_config(path: str) -> dict:
    """Read a simple key=value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from exc
    return values


def _emit(command: str, params: dict, columns: list[str], rows: list[list], args) -> str:
    if args.format == "csv":
        # one format for the table, each column's from the kind of its first cell:
        # a float to 12 significant digits (inf included), a bool as true or false
        line = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0])
        cells = tuple(("false", "true")[v] if v is True or v is False else v for row in rows for v in row)
        return ",".join(columns) + "\n" + "\n".join([line] * len(rows)) % cells + "\n"

    # every cell is a number; an infinite one is flagged and written as null
    infinite = [[i, j] for i, row in enumerate(rows) for j, v in enumerate(row) if math.isinf(v)]
    for i, j in infinite:
        rows[i][j] = None
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "log_base": args.log_base,
        "seed": args.seed,
        "parameters": params,
        "columns": columns,
        "rows": rows,
        "infinite_flags": infinite,
    }
    return _json_text(doc) + "\n"


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2) byte for byte; "rows" and "infinite_flags" are lists of flat lists."""
    fields = []
    for key, value in doc.items():
        if key in ("rows", "infinite_flags") and value and all(value):
            rows = _ROWS(value)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
            text = "[\n    [\n      " + rows + "\n    ]\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


def _sweep(build, **axes) -> list[list]:
    """The rows build(**point) over the product grid of ``axes`` (name ->
    grid), the first axis outermost, each column from one call over the whole
    grid; a ratio past the float range is inf, as for Python floats.  A
    ValueError, raised for a point outside the domain of what ``build``
    builds, is a malformed request: the points are then built one by one,
    and the first that fails is named."""
    grid = dict(zip(axes, (g.ravel() for g in np.meshgrid(*axes.values(), indexing="ij"))))
    with np.errstate(over="ignore", invalid="ignore"):  # the sqrt of a negative t2 is NaN, which its rule refuses
        try:
            return np.column_stack(np.broadcast_arrays(*build(**grid))).tolist()
        except ValueError:
            for values in zip(*grid.values()):
                point = dict(zip(grid, map(float, values)))
                _request(lambda: build(**point), **point)
            raise


def _run_entanglement_sweep(args):
    lengths = _check_grid(parse_grid(args.length), "length")
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    l_abs = _scalar(parse_grid(args.absorption_length), "absorption length")
    label = _BASE_LABEL[args.log_base]
    columns = ["l_over_lA", "t_squared", f"en_max_{label}", f"en_zeta_{label}"]

    def build(length, zeta):
        en_max = ent.max_transmittable(length, l_abs, args.log_base)  # refuses a bad length or l_abs first
        t_sq = np.exp(-2.0 * length / l_abs)
        return length / l_abs, t_sq, en_max, ent.transmitted_log_negativity(zeta, np.sqrt(t_sq), args.log_base)

    return {"zeta": zeta, "absorption_length": l_abs}, columns, _sweep(build, length=lengths, zeta=np.array([zeta]))


def _run_fidelity_sweep(args):
    grid = {"eta": _check_grid(parse_grid(args.eta), "eta"), "zeta": _check_grid(parse_grid(args.zeta), "zeta")}
    return {}, ["eta", "zeta", "f_qu"], _sweep(lambda eta, zeta: (eta, zeta, pure_squeezed_fidelity(eta, zeta)), **grid)


def _run_separability(args):
    zetas = _check_grid(parse_grid(args.zeta), "zeta")
    t2s = _check_grid(parse_grid(args.t2), "t2")
    r2 = _scalar(parse_grid(args.r2), "r2")
    nth = _scalar(parse_grid(args.nth), "nth")
    l_abs = _scalar(parse_grid(args.absorption_length), "absorption length")
    columns = ["zeta", "t_squared", "r_squared", "nth_crit", "l_s_over_lA"]

    def build(zeta, t2):
        l_s = ent.separability_length(zeta, nth, l_abs)
        return zeta, t2, r2, ent.fiber_separability_threshold(zeta, np.sqrt(t2), np.sqrt(r2)), l_s / l_abs

    return {"nth": nth, "absorption_length": l_abs}, columns, _sweep(build, zeta=zetas, t2=t2s)


def _fiber(args) -> tuple[FiberParams, dict]:
    """The fiber on both arms, and its cells of the command's one result row."""
    t2 = _scalar(parse_grid(args.t2), "t2")
    r2 = _scalar(parse_grid(args.r2), "r2")
    nth = _scalar(parse_grid(args.nth), "nth")
    fiber = _request(lambda: FiberParams(t_mag=math.sqrt(t2), r_mag=math.sqrt(r2), n_th=nth))
    return fiber, {"t_squared": fiber.t_mag**2, "r_squared": fiber.r_mag**2, "nth": fiber.n_th}


def _run_teleport(args):
    eta = _scalar(parse_grid(args.eta), "eta")
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    fiber, fiber_cells = _fiber(args)
    # the signal and the setup refuse a squeezing past their range, the setup an unphysical signal,
    # teleport a closed form that overflows or whose denominator rounds to 0
    result = _request(lambda: teleport(TeleportSetup(squeezed_signal(eta).gamma, zeta, fiber, fiber)))
    g, gain = result.gamma_rec, result.gain
    cells = {
        "eta": eta, "zeta": zeta, **fiber_cells, "f_qu": result.fidelity_zero_mean,
        "gamma_rec_xx": g[0, 0], "gamma_rec_xp": g[0, 1], "gamma_rec_pp": g[1, 1],
        "gain_11": gain[0, 0], "gain_12": gain[0, 1], "gain_21": gain[1, 0], "gain_22": gain[1, 1],
    }
    return {}, list(cells), [list(cells.values())]


def _run_check_state(args):
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    fiber, fiber_cells = _fiber(args)
    gamma = _request(lambda: degraded_tmsv(zeta, fiber, fiber))  # past the zeta range of tmsv_state
    report = validate_covariance(gamma)
    if not report.physical:
        raise ArithmeticError(
            f"degraded TMSV covariance is unphysical (min eigenvalue {report.min_eigenvalue:.3e})"
        )
    nus = symplectic_eigenvalues(gamma)
    cls = classicality_test(gamma)
    cells = {
        "zeta": zeta, **fiber_cells, "physical": report.physical,
        "min_eig_gamma_plus_isigma": report.min_eigenvalue, "nu_1": float(nus[0]), "nu_2": float(nus[1]),
        "min_gamma_eig": cls.min_gamma_eigenvalue, "classical": cls.classical,
        "separable": ent.is_separable(gamma).separable,
        f"e_n_{_BASE_LABEL[args.log_base]}": ent.log_negativity(gamma, args.log_base).e_n,
    }
    return {}, list(cells), [list(cells.values())]


_RUNNERS = {
    "entanglement-sweep": _run_entanglement_sweep,
    "fidelity-sweep": _run_fidelity_sweep,
    "separability": _run_separability,
    "teleport": _run_teleport,
    "check-state": _run_check_state,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _RUNNERS:
        p = sub.add_parser(command)
        for key in _DEFAULTS[command]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None, help=_HELP[key])
        p.add_argument("--log-base", dest="log_base", choices=_CHOICES["log_base"], default=None)
        p.add_argument("--format", choices=_CHOICES["format"], default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file")
    return parser


def _resolve(args) -> None:
    """Apply precedence: command line > config file > defaults."""
    config = load_config(args.config) if args.config else {}
    for key, default in {**_DEFAULTS[args.command], **_COMMON}.items():
        if getattr(args, key) is not None:
            continue
        value = config.get(key, default)
        if key in _CHOICES and value not in _CHOICES[key]:
            raise SpecError(f"{key} must be {' or '.join(_CHOICES[key])}, got {value!r}")
        if key == "seed" and value is not None:
            try:
                value = int(value)
            except ValueError as exc:
                raise SpecError(f"seed must be an integer, got {value!r}") from exc
        setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve(args)
        params, columns, rows = _RUNNERS[args.command](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    for key in _DEFAULTS[args.command]:
        params.setdefault(key, str(getattr(args, key)))
    text = _emit(args.command, params, columns, rows, args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
