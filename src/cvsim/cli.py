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

_BASE_LABEL = {"e": "ln", "2": "log2"}


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


def _absorption_length(args) -> float:
    l_abs = _scalar(parse_grid(args.absorption_length), "absorption length")
    if l_abs <= 0:
        raise SpecError("absorption length must be positive")
    return l_abs


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


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    return str(value)


def _emit(command: str, params: dict, columns: list[str], rows: list[list], args) -> str:
    if args.format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt_csv(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"

    infinite = []
    json_rows = []
    for i, row in enumerate(rows):
        out_row = []
        for j, v in enumerate(row):
            if isinstance(v, float) and math.isinf(v):
                out_row.append(None)
                infinite.append([i, j])
            else:
                out_row.append(v)
        json_rows.append(out_row)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "log_base": args.log_base,
        "seed": args.seed,
        "parameters": params,
        "columns": columns,
        "rows": json_rows,
        "infinite_flags": infinite,
    }
    return json.dumps(doc, indent=2) + "\n"


def _run_entanglement_sweep(args):
    lengths = _check_grid(parse_grid(args.length), "length")
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    l_abs = _absorption_length(args)
    label = _BASE_LABEL[args.log_base]
    columns = ["l_over_lA", "t_squared", f"en_max_{label}", f"en_zeta_{label}"]
    rows = []
    for l in lengths:
        t_sq = math.exp(-2.0 * l / l_abs)
        # the closed forms raise ValueError only for inputs outside their domain
        try:
            en_max = ent.max_transmittable(float(l), l_abs, args.log_base)
            en_zeta = ent.transmitted_log_negativity(zeta, math.sqrt(t_sq), args.log_base)
        except ValueError as exc:
            raise SpecError(f"length={l!r}, zeta={zeta!r}: {exc}") from exc
        rows.append([float(l / l_abs), t_sq, en_max, en_zeta])
    params = {"zeta": zeta, "absorption_length": l_abs}
    return params, columns, rows


def _run_fidelity_sweep(args):
    etas = _check_grid(parse_grid(args.eta), "eta")
    zetas = _check_grid(parse_grid(args.zeta), "zeta")
    columns = ["eta", "zeta", "f_qu"]
    rows = []
    for eta in etas:
        for zeta in zetas:
            rows.append([float(eta), float(zeta), pure_squeezed_fidelity(float(eta), float(zeta))])
    return {}, columns, rows


def _run_separability(args):
    zetas = _check_grid(parse_grid(args.zeta), "zeta")
    t2s = _check_grid(parse_grid(args.t2), "t2")
    r2 = _scalar(parse_grid(args.r2), "r2")
    nth = _scalar(parse_grid(args.nth), "nth")
    l_abs = _absorption_length(args)
    columns = ["zeta", "t_squared", "r_squared", "nth_crit", "l_s_over_lA"]
    rows = []
    for zeta in zetas:
        for t2 in t2s:
            # the closed forms raise ValueError only for inputs outside their domain
            try:
                n_crit = ent.fiber_separability_threshold(float(zeta), math.sqrt(t2), math.sqrt(r2))
                l_s = ent.separability_length(float(zeta), nth, l_abs) if zeta > 0 else 0.0
            except ValueError as exc:
                raise SpecError(f"zeta={float(zeta)!r}, t2={float(t2)!r}: {exc}") from exc
            rows.append([float(zeta), float(t2), r2, n_crit, l_s / l_abs if math.isfinite(l_s) else l_s])
    return {"nth": nth, "absorption_length": l_abs}, columns, rows


def _fibers(args) -> FiberParams:
    t2 = _scalar(parse_grid(args.t2), "t2")
    r2 = _scalar(parse_grid(args.r2), "r2")
    nth = _scalar(parse_grid(args.nth), "nth")
    try:
        return FiberParams(t_mag=math.sqrt(t2), r_mag=math.sqrt(r2), n_th=nth)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _run_teleport(args):
    eta = _scalar(parse_grid(args.eta), "eta")
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    fiber = _fibers(args)
    result = teleport(TeleportSetup(squeezed_signal(eta).gamma, zeta, fiber, fiber))
    g = result.gamma_rec
    gain = result.gain
    columns = [
        "eta", "zeta", "t_squared", "r_squared", "nth",
        "f_qu", "gamma_rec_xx", "gamma_rec_xp", "gamma_rec_pp",
        "gain_11", "gain_12", "gain_21", "gain_22",
    ]
    row = [
        eta, zeta, fiber.t_mag**2, fiber.r_mag**2, fiber.n_th,
        result.fidelity_zero_mean, g[0, 0], g[0, 1], g[1, 1],
        gain[0, 0], gain[0, 1], gain[1, 0], gain[1, 1],
    ]
    return {}, columns, [row]


def _run_check_state(args):
    zeta = _scalar(parse_grid(args.zeta), "zeta")
    fiber = _fibers(args)
    gamma = degraded_tmsv(zeta, fiber, fiber)
    report = validate_covariance(gamma)
    columns = [
        "zeta", "t_squared", "r_squared", "nth",
        "physical", "min_eig_gamma_plus_isigma", "nu_1", "nu_2",
        "min_gamma_eig", "classical", "separable", f"e_n_{_BASE_LABEL[args.log_base]}",
    ]
    if not report.physical:
        raise ArithmeticError(
            f"degraded TMSV covariance is unphysical (min eigenvalue {report.min_eigenvalue:.3e})"
        )
    nus = symplectic_eigenvalues(gamma)
    cls = classicality_test(gamma)
    verdict = ent.is_separable(gamma)
    neg = ent.log_negativity(gamma, args.log_base)
    row = [
        zeta, fiber.t_mag**2, fiber.r_mag**2, fiber.n_th,
        report.physical, report.min_eigenvalue, float(nus[0]), float(nus[1]),
        cls.min_gamma_eigenvalue, cls.classical, verdict.separable, neg.e_n,
    ]
    return {}, columns, [row]


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
        p.add_argument("--log-base", dest="log_base", choices=("e", "2"), default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file")
    return parser


def _resolve(args) -> None:
    """Apply precedence: command line > config file > defaults."""
    config = load_config(args.config) if args.config else {}
    for key, default in _DEFAULTS[args.command].items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, default))
    if args.log_base is None:
        base = config.get("log_base", "e")
        if base not in ("e", "2"):
            raise SpecError(f"log_base must be e or 2, got {base!r}")
        args.log_base = base
    if args.format is None:
        fmt = config.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise SpecError(f"format must be csv or json, got {fmt!r}")
        args.format = fmt
    if args.seed is None and "seed" in config:
        try:
            args.seed = int(config["seed"])
        except ValueError as exc:
            raise SpecError(f"seed must be an integer, got {config['seed']!r}") from exc


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
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
