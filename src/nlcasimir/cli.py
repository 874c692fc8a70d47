"""Command-line front end.

Subcommands emit plot-ready CSV (default) or JSON on stdout or --out.
Data streams are deterministic: identical invocations produce identical
bytes.  All diagnostics go to stderr.  Exit codes: 0 success, 1 failed
verification (kk-verify only), 2 usage or domain error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .constants import CONSTANTS
from .errors import ConvergenceError, DomainError, ParseError
from .kramers_kronig import RELATIONS, KKReport, verify_kk
# casimir_pressure is imported only because perfbench/tracing.py patches it
# by name until it wraps casimir_pressures (ROADMAP 1); no command calls it
from .lifshitz import PressureQuery, casimir_pressure, casimir_pressures
from .optical_data import build_core_table, interband_im_eps, parse_optical_table
from .reflection import reflectance_deviation
from .response import (Drude, DrudeParams, NonlocalAlt, NonlocalParams,
                       Plasma, PRESETS, WithCore, eval_imag_axis,
                       eval_real_axis)
from .sphere_plate import SpherePlateConfig, force_gradient, parse_experiment_csv

_KK_THRESHOLD = 1e-4
# patched by name in perfbench/tracing.py until it wraps verify_kk (ROADMAP 1)
verify_kk_real_from_imag_T = verify_kk_imag_from_real_T = None
verify_kk_imag_axis_T = verify_kk_L = None
# imaginary-axis grid used when tabulating an interband core
_CORE_XI_GRID = np.geomspace(1e-3, 1e2, 121)


@dataclass(frozen=True)
class RunConfig:
    """Model parameters and output plumbing shared by all subcommands."""

    params: NonlocalParams
    temperature: float
    fmt: str
    out: Optional[str]
    optical_data: Optional[str]


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _round9(x: float) -> float:
    return float(_fmt(x))


def _parse_theta(text: str) -> float:
    try:
        if text.endswith("deg"):
            return math.radians(float(text[:-3]))
        return float(text)
    except ValueError:
        raise DomainError(
            f"cannot parse angle {text!r}; use radians or append 'deg'") from None


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlcasimir",
        description="Casimir pressure and response-function tables for "
                    "local and spatially dispersive metals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", default="gold-default",
                       choices=sorted(PRESETS),
                       help="named parameter set (default: %(default)s)")
        p.add_argument("--omega-p", type=float, default=None,
                       help="plasma frequency in eV (overrides preset)")
        p.add_argument("--gamma", type=float, default=None,
                       help="relaxation rate in eV (overrides preset)")
        p.add_argument("--vt", type=float, default=None, metavar="N",
                       help="transverse velocity in units of v_F")
        p.add_argument("--vl", type=float, default=None, metavar="N",
                       help="longitudinal velocity in units of v_F")
        p.add_argument("--temp", type=float, default=300.0,
                       help="temperature in K (default: %(default)s)")
        p.add_argument("--optical-data", default=None, metavar="PATH",
                       help="tabulated n,k file; adds an interband core on "
                            "the imaginary axis")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None,
                       help="output format (default: csv; kk-verify: json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the data stream to PATH instead of stdout")

    p_eps = sub.add_parser("epsilon", help="permittivity tables")
    add_common(p_eps)
    p_eps.add_argument("--axis", choices=("imag", "real"), default="imag")
    p_eps.add_argument("--kperp", type=float, default=0.0,
                       help="transverse wavevector as hbar c k in eV")
    p_eps.add_argument("--omega-min", type=float, default=0.1)
    p_eps.add_argument("--omega-max", type=float, default=10.0)
    p_eps.add_argument("--points", type=int, default=50)

    p_pr = sub.add_parser("pressure", help="plate-plate pressure sweep")
    add_common(p_pr)
    p_pr.add_argument("--models", default="drude,nonlocal,plasma",
                      help="comma list from {drude, nonlocal, plasma}")
    p_pr.add_argument("--a-min", type=float, required=True, help="um")
    p_pr.add_argument("--a-max", type=float, required=True, help="um")
    p_pr.add_argument("--points", type=int, default=25)

    p_gr = sub.add_parser("gradient", help="sphere-plate force gradient")
    add_common(p_gr)
    p_gr.add_argument("--model", choices=("drude", "nonlocal", "plasma"),
                      default="nonlocal")
    p_gr.add_argument("--radius", type=float, required=True, help="um")
    p_gr.add_argument("--beta", type=float, default=0.0,
                      help="leading proximity-force correction coefficient")
    p_gr.add_argument("--delta-s", type=float, default=0.0,
                      help="sphere rms roughness, um")
    p_gr.add_argument("--delta-p", type=float, default=0.0,
                      help="plate rms roughness, um")
    p_gr.add_argument("--a-min", type=float, default=0.6, help="um")
    p_gr.add_argument("--a-max", type=float, default=2.0, help="um")
    p_gr.add_argument("--points", type=int, default=30)
    p_gr.add_argument("--expt", default=None, metavar="PATH",
                      help="measured-gradient CSV; evaluates at its "
                           "separations and emits the difference column")

    p_rf = sub.add_parser("reflectance", help="real-frequency reflectances "
                          "and their deviation from the local model")
    add_common(p_rf)
    p_rf.add_argument("--theta", required=True,
                      help="incidence angle, radians or 'NNdeg'")
    p_rf.add_argument("--omega-min", type=float, default=0.1)
    p_rf.add_argument("--omega-max", type=float, default=1.0)
    p_rf.add_argument("--points", type=int, default=50)

    p_kk = sub.add_parser("kk-verify", help="causality-relation residuals")
    add_common(p_kk)
    p_kk.add_argument("--kperp", type=float, default=0.0,
                      help="transverse wavevector as hbar c k in eV")
    p_kk.add_argument("--relations", default="all",
                      help="'all' or comma list from: "
                           + ", ".join(RELATIONS))
    return parser


def _resolve_params(args) -> NonlocalParams:
    base = PRESETS[args.preset]().params
    vf = CONSTANTS.fermi_velocity_ratio_default
    omega_p = base.drude.omega_p if args.omega_p is None else args.omega_p
    gamma = base.drude.gamma if args.gamma is None else args.gamma
    vt = base.v_t_ratio if args.vt is None else args.vt * vf
    vl = base.v_l_ratio if args.vl is None else args.vl * vf
    return NonlocalParams(DrudeParams(omega_p, gamma), vt, vl)


def _config(args) -> RunConfig:
    default_fmt = "json" if args.command == "kk-verify" else "csv"
    return RunConfig(params=_resolve_params(args),
                     temperature=args.temp,
                     fmt=args.fmt or default_fmt,
                     out=args.out,
                     optical_data=args.optical_data)


def _load_core(cfg: RunConfig):
    with open(cfg.optical_data, encoding="utf-8") as handle:
        table = parse_optical_table(handle.read())
    interband = interband_im_eps(table, cfg.params.drude)
    return build_core_table(interband, _CORE_XI_GRID,
                            provenance=cfg.optical_data)


def _build_model(name: str, cfg: RunConfig, core):
    if name == "drude":
        model = Drude(cfg.params.drude)
    elif name == "nonlocal":
        model = NonlocalAlt(cfg.params)
    elif name == "plasma":
        # dissipationless baseline: no relaxation, no interband core
        return Plasma(cfg.params.drude.omega_p)
    else:
        raise DomainError(f"unknown model name {name!r}")
    if core is not None:
        model = WithCore(model, core)
    return model


def _meta(cfg: RunConfig, extra: dict) -> dict:
    """Run parameters, then extra; floats as 9-digit text for CSV and as
    floats rounded to 9 digits for JSON."""
    num = _fmt if cfg.fmt == "csv" else _round9
    vf = CONSTANTS.fermi_velocity_ratio_default
    meta = {
        "omega_p_eV": num(cfg.params.drude.omega_p),
        "gamma_eV": num(cfg.params.drude.gamma),
        "vt_over_vF": num(cfg.params.v_t_ratio / vf),
        "vl_over_vF": num(cfg.params.v_l_ratio / vf),
        "temp_K": num(cfg.temperature),
    }
    if cfg.optical_data:
        meta["optical_data"] = cfg.optical_data
    meta.update(extra)
    return meta


def _csv(cfg: RunConfig, extra: dict, header: List[str], lines) -> str:
    meta = " ".join(f"{k}={v}" for k, v in _meta(cfg, extra).items())
    return "\n".join([f"# {meta}", ",".join(header), *lines]) + "\n"


def _emit_table(cfg: RunConfig, meta: dict, header: List[str],
                rows: List[List[float]]) -> str:
    if cfg.fmt == "csv":
        return _csv(cfg, meta, header,
                    (",".join(_fmt(v) for v in row) for row in rows))
    payload = {
        "meta": _meta(cfg, meta),
        "columns": header,
        "rows": [[_round9(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _grid(lo: float, hi: float, points: int) -> np.ndarray:
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range bounds must be finite, got [{lo}, {hi}]")
    if not lo > 0.0:
        raise DomainError(f"the range must start above 0, got {lo}")
    if lo > hi:
        raise DomainError(f"empty range [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


def _cmd_epsilon(args, cfg: RunConfig) -> str:
    grid = _grid(args.omega_min, args.omega_max, args.points)
    core = _load_core(cfg) if cfg.optical_data else None
    model = _build_model("nonlocal", cfg, core)
    if args.axis == "imag":
        header = ["xi_eV", "eps_L", "eps_T"]
        pair = eval_imag_axis(model, grid, args.kperp)
        columns = [pair.eps_l, pair.eps_t]
    else:
        if core is not None:
            raise DomainError(
                "interband cores are defined on the imaginary axis only; "
                "drop --optical-data for --axis real")
        header = ["omega_eV", "re_eps_L", "im_eps_L", "re_eps_T", "im_eps_T"]
        pair = eval_real_axis(model, grid, args.kperp)
        columns = [pair.eps_l.real, pair.eps_l.imag,
                   pair.eps_t.real, pair.eps_t.imag]
    meta = {"command": "epsilon", "axis": args.axis,
            "kperp_eV": _fmt(args.kperp)}
    return _emit_table(cfg, meta, header, np.column_stack([grid, *columns]))


def _cmd_pressure(args, cfg: RunConfig) -> str:
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    if not names:
        raise DomainError("--models must name at least one model")
    if len(set(names)) < len(names):
        raise DomainError(f"a model is listed twice in {args.models!r}")
    core = _load_core(cfg) if cfg.optical_data else None
    models = {n: _build_model(n, cfg, core) for n in names}
    grid = _grid(args.a_min, args.a_max, args.points)

    header = ["a_um"] + [f"P_{n}_Pa" for n in names]
    with_ratio_nl = "nonlocal" in names and "drude" in names
    with_ratio_pl = "plasma" in names and "drude" in names
    if with_ratio_nl:
        header.append("ratio_nl_drude")
    if with_ratio_pl:
        header.append("ratio_pl_drude")

    # one call per model: its separations share the quadrature passes
    columns = {n: [r.pressure for r in casimir_pressures(
        [PressureQuery(float(a), cfg.temperature, models[n]) for a in grid])]
        for n in names}
    rows = []
    for i, a in enumerate(grid):
        pressures = {n: columns[n][i] for n in names}
        row = [a] + [pressures[n] for n in names]
        if with_ratio_nl:
            row.append(pressures["nonlocal"] / pressures["drude"])
        if with_ratio_pl:
            row.append(pressures["plasma"] / pressures["drude"])
        rows.append(row)
    meta = {"command": "pressure", "models": ",".join(names)}
    return _emit_table(cfg, meta, header, rows)


def _cmd_gradient(args, cfg: RunConfig) -> str:
    core = _load_core(cfg) if cfg.optical_data else None
    model = _build_model(args.model, cfg, core)
    sp = SpherePlateConfig(radius=args.radius, beta=args.beta,
                           delta_sphere=args.delta_s, delta_plate=args.delta_p)

    if args.expt:
        with open(args.expt, encoding="utf-8") as handle:
            seps, fp_expt, _sigma = parse_experiment_csv(handle.read())
        header = ["a_um", "Fprime_theor", "Fprime_expt", "diff"]
    else:
        seps = _grid(args.a_min, args.a_max, args.points)
        header = ["a_um", "Fprime_theor"]
    # one call for every separation; force_gradient looks each one up
    pressures = dict(zip(seps.tolist(), (r.pressure for r in casimir_pressures(
        [PressureQuery(float(a), cfg.temperature, model) for a in seps]))))
    theor = [force_gradient(float(a), sp, pressures.__getitem__) for a in seps]
    if args.expt:
        rows = [[a, t, fp, fp - t] for a, t, fp in zip(seps, theor, fp_expt)]
    else:
        rows = [[a, t] for a, t in zip(seps, theor)]
    meta = {"command": "gradient", "model": args.model,
            "radius_um": _fmt(args.radius), "beta": _fmt(args.beta),
            "delta_s_um": _fmt(args.delta_s), "delta_p_um": _fmt(args.delta_p)}
    return _emit_table(cfg, meta, header, rows)


def _cmd_reflectance(args, cfg: RunConfig) -> str:
    if cfg.optical_data:
        raise DomainError("reflectance works on the real axis; interband "
                          "cores (--optical-data) are imaginary-axis only")
    theta = _parse_theta(args.theta)
    nonlocal_model = _build_model("nonlocal", cfg, None)
    local_model = _build_model("drude", cfg, None)
    grid = _grid(args.omega_min, args.omega_max, args.points)
    header = ["omega_eV", "R_TM", "R_TE", "dR_TM", "dR_TE"]
    rows = []
    for om in grid:
        dev = reflectance_deviation(nonlocal_model, local_model,
                                    float(om), theta)
        rows.append([om, dev.reflectance_tm, dev.reflectance_te,
                     dev.deviation_tm, dev.deviation_te])
    meta = {"command": "reflectance", "theta_rad": _fmt(theta)}
    return _emit_table(cfg, meta, header, rows)


def _select_relations(spec: str) -> List[str]:
    if spec.strip() == "all":
        return list(RELATIONS)
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in RELATIONS]
    if unknown:
        raise DomainError(f"unknown relation ids {unknown}; choose from "
                          f"{', '.join(RELATIONS)}")
    if not names:
        raise DomainError("--relations must name at least one relation")
    return names


def _report_dict(report: KKReport) -> dict:
    out = {
        "relation": report.relation,
        "k_hat_eV": _round9(report.k_hat),
        "grid_eV": [_round9(x) for x in report.grid],
        "residuals": [_round9(r) for r in report.residuals],
        "max_residual": _round9(report.max_residual),
    }
    if report.note:
        out["note"] = report.note
    return out


def _cmd_kk_verify(args, cfg: RunConfig) -> tuple:
    wanted = _select_relations(args.relations)
    k = args.kperp
    # table order, so that which input error is reported does not depend
    # on the order of --relations
    reports = {rid: verify_kk(rid, cfg.params, k)
               for rid in RELATIONS if rid in wanted}
    ordered = [reports[name] for name in wanted]

    if cfg.fmt == "json":
        text = json.dumps([_report_dict(r) for r in ordered], indent=2) + "\n"
    else:
        text = _csv(cfg, {"command": "kk-verify", "kperp_eV": _fmt(k)},
                    ["relation", "grid_eV", "residual"],
                    (f"{rep.relation},{_fmt(x)},{_fmt(res)}"
                     for rep in ordered
                     for x, res in zip(rep.grid, rep.residuals)))
    failed = any(r.max_residual > _KK_THRESHOLD for r in ordered)
    return text, failed


@contextlib.contextmanager
def _warnings_printed():
    """Print each warning the block raises as a 'warning:' line on stderr.

    Every run prints its own: the default filter would show a message
    once per process, and only to the first run that raised it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for caught_warning in caught:
                print(f"warning: {caught_warning.message}", file=sys.stderr)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    exit_code = 0
    try:
        with _warnings_printed():
            cfg = _config(args)
            if args.command == "epsilon":
                text = _cmd_epsilon(args, cfg)
            elif args.command == "pressure":
                text = _cmd_pressure(args, cfg)
            elif args.command == "gradient":
                text = _cmd_gradient(args, cfg)
            elif args.command == "reflectance":
                text = _cmd_reflectance(args, cfg)
            elif args.command == "kk-verify":
                text, failed = _cmd_kk_verify(args, cfg)
                if failed:
                    print(f"kk-verify: at least one max_residual exceeds "
                          f"{_KK_THRESHOLD:g}", file=sys.stderr)
                    exit_code = 1
            else:  # pragma: no cover - argparse enforces the choices
                raise DomainError(f"unknown command {args.command!r}")
    except (DomainError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
