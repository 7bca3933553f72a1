"""Command-line entry point: check, simulate, sweep, convergence, optimize-rate."""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .certificate import (build_certificate, f_of_mu1, g_of_mu1, gain_threshold,
                          mu1_interval_right, optimal_mu1)
from .config import (RunSettings, _config_from, _read_ini, _read_section, initial_profile,
                     parse_config, profile_spec, serialize_config)
from .energy import dissipation_residual, kato_identity_residual
from .errors import (BousslabError, CertificationError, ConfigurationError,
                     InadmissibleGainsError)
from .mms import convergence_study
from .operators import build_operators
from .params import DelaySpec, Grid, SystemParams, validate_params
from .report import bound_check, fit_decay, fit_window, summary_text
from .stepping import StepConfig, initial_state, run, slow_mode_state, suggested_theta

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_CONFIG = 3


def _load(args):
    """The --config file, with `simulate`'s override flags applied."""
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read configuration: {exc}") from exc
    p, dly, grid, runset = parse_config(text)
    given = {key: getattr(args, key, None) for key in ("dt", "T", "nonlinear", "seed")}
    runset = replace(runset, **{key: v for key, v in given.items() if v is not None})
    if getattr(args, "n", None) is not None:
        grid = Grid(n=args.n, L=p.L)
    return p, dly, grid, runset


def _certificate_or_none(p: SystemParams, dly: DelaySpec):
    """The certificate, or None when the gains are inadmissible or L is out
    of the certification range."""
    try:
        return build_certificate(p, dly)
    except (InadmissibleGainsError, CertificationError):
        return None


def simulate(p: SystemParams, dly: DelaySpec, grid: Grid, runset: RunSettings):
    """Shared orchestration for `simulate` and per-point sweep simulation.

    Returns (report, certificate-or-None, extras dict).
    """
    vrep = validate_params(p, dly, horizon=max(runset.T, 1.0))
    if not vrep.ok:
        raise ConfigurationError(
            "validation failed:\n" + "\n".join(c.message for c in vrep.errors))
    cert = _certificate_or_none(p, dly)
    ops = build_operators(p, grid)
    mu1, mu2 = (cert.mu1, cert.mu2) if cert is not None else (0.0, 0.0)

    name, args = profile_spec(runset.eta0)
    if name == "slowmode":
        amp = args[0] if args else 1.0
        state, _ = slow_mode_state(ops, p, dly, runset.dt, amplitude=amp)
    else:
        rng = np.random.default_rng(runset.seed)
        eta0 = initial_profile(runset.eta0, grid.nodes, p.L, rng)
        omega0 = initial_profile(runset.omega0, grid.nodes, p.L, rng)
        state = initial_state(p, dly, grid, eta0, omega0)

    cfg = StepConfig(dt=runset.dt, theta=suggested_theta(runset.dt),
                     nonlinear=runset.nonlinear)
    rep = run(state, runset.T, cfg, p, dly, ops, mu1=mu1, mu2=mu2,
              store_fields=runset.store_fields)

    extras = {"certified": cert is not None}
    if rep.n_rows >= 3:
        extras["dissipation_residual"] = dissipation_residual(rep, p)
    if rep.fields_eta is not None and rep.n_rows >= 2:
        kres, c_l = kato_identity_residual(rep, p)
        extras["kato_residual"] = kres
        extras["kato_C_L"] = c_l
    # a run of one step holds one sample in the fit window
    if np.count_nonzero(fit_window(rep.t)) >= 2 and np.all(rep.E > 0):
        lam_obs, r2 = fit_decay(rep.t, rep.E)
        extras["lambda_obs"] = lam_obs
        extras["fit_r2"] = r2
    if cert is not None:
        extras.update(lambda_theory=cert.lam, zeta=cert.zeta,
                      mu1_star=cert.mu1_star)
        ok, ratio = bound_check(rep.t, rep.E, cert.lam, cert.zeta)
        extras["bound_ok"] = ok
        extras["bound_max_ratio"] = ratio
    else:
        extras["note"] = "uncertified (gains inadmissible or L out of range)"
    return rep, cert, extras


def cmd_check(args, p, dly, grid, runset) -> int:
    vrep = validate_params(p, dly)
    print(vrep)
    if not vrep.ok:
        return EXIT_CONFIG
    try:
        cert = build_certificate(p, dly)
    except BousslabError as exc:
        print(f"inadmissible: {exc}")
        return EXIT_INADMISSIBLE
    print(cert.document())
    return EXIT_OK


def _output_paths(out: Path, *names: str) -> list[Path]:
    """Make `out` and return the paths of `names` in it, refusing (OSError) one
    under a missing directory or that is a directory, so an unusable output
    fails before any work."""
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in names]
    for path in paths:
        path.parent.stat()  # a missing directory fails now, not after the run
        if path.is_dir():
            path.unlink()  # a directory is not unlinked: IsADirectoryError
    return paths


def _clear(paths: list[Path]) -> None:
    """Remove `paths`, so each is created new: a rewrite in place stalls on
    ext4, and no earlier run's file stays beside this run's."""
    for path in paths:
        path.unlink(missing_ok=True)


def cmd_simulate(args, p, dly, grid, runset) -> int:
    out = Path(args.out)
    try:
        paths = _output_paths(out, "timeseries.csv", "summary.txt", "certificate.txt",
                              "config.ini")
        rep, cert, extras = simulate(p, dly, grid, runset)
        summary = summary_text(rep, extras)
        texts = (rep.to_csv(), summary, None if cert is None else cert.document() + "\n",
                 serialize_config(p, dly, grid, runset))
        # a run refused before it returns leaves the earlier run's files
        _clear(paths)
        for path, text in zip(paths, texts, strict=True):
            if text is not None:   # no certificate.txt for an uncertified run
                path.write_text(text)
    except BousslabError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary, end="")
    return EXIT_OK if rep.termination == "completed" else 1


_SWEEPABLE_SYSTEM = ("a", "a1", "L", "alpha", "beta")
_SWEEPABLE_DELAY = ("tau0", "M", "d")
# the columns each sweep task writes after the axes, admissible and threshold;
# task `both` writes every task's, in this order
_TASK_COLUMNS = {"certify": ("mu1_star", "lambda", "zeta"),
                 "simulate": ("lambda_obs", "E_final", "bound_ok", "termination")}


def _sweep_point(base_p, base_dly, grid, runset, names, values, tasks):
    row = dict(zip(names, values))
    try:
        p = replace(base_p, **{k: v for k, v in row.items() if k in _SWEEPABLE_SYSTEM})
        dly = replace(base_dly, **{k: v for k, v in row.items() if k in _SWEEPABLE_DELAY})
        if p.L != grid.L:
            grid = Grid(n=grid.n, L=p.L)
        row["threshold"] = gain_threshold(p, dly)
        # admissible means certified, as in `check`
        cert = _certificate_or_none(p, dly)
        row["admissible"] = cert is not None
        if "certify" in tasks and cert is not None:
            row.update(zip(_TASK_COLUMNS["certify"], (cert.mu1_star, cert.lam, cert.zeta)))
        if "simulate" in tasks:
            rep, _, extras = simulate(p, dly, grid, runset)
            row.update(zip(_TASK_COLUMNS["simulate"],
                           (extras.get("lambda_obs", ""), rep.E[-1], extras.get("bound_ok", ""),
                            rep.termination)))
        row["error"] = ""
    except BousslabError as exc:
        row["error"] = str(exc).replace(",", ";").replace("\n", " ")
    return row


def cmd_sweep(args) -> int:
    try:
        cp = _read_ini(Path(args.spec).read_text())
        if not cp.has_section("axes") or not cp.items("axes"):
            raise ConfigurationError("sweep spec needs a non-empty [axes] section")
        sweep = {"task": "certify", "output": "sweep.csv"}
        sweep.update(_read_section(cp, "sweep", sweep))
        task = sweep["task"]
        if task not in (*_TASK_COLUMNS, "both"):
            raise ConfigurationError(f"unknown sweep task {task!r}")
        tasks = list(_TASK_COLUMNS) if task == "both" else [task]
        axes = {}
        for name, raw in cp.items("axes"):
            if name not in _SWEEPABLE_SYSTEM + _SWEEPABLE_DELAY:
                raise ConfigurationError(f"unknown sweep axis {name!r}")
            try:
                vals = [float(x) for x in raw.split()]
            except ValueError as exc:
                raise ConfigurationError(f"sweep axis {name!r}: {exc}") from exc
            if not vals:
                raise ConfigurationError(f"empty axis {name!r}")
            axes[name] = vals
        # the base configuration is the spec without its own two sections
        cp.remove_section("sweep")
        cp.remove_section("axes")
        p, dly, grid, runset = _config_from(cp)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"sweep spec error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        [path] = _output_paths(Path(args.out), sweep["output"])
        _clear([path])
        rows = [_sweep_point(p, dly, grid, runset, list(axes), vals, tasks)
                for vals in itertools.product(*axes.values())]
        columns = [*axes, "admissible", "threshold",
                   *(c for t in tasks for c in _TASK_COLUMNS[t]), "error"]
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(
                ("%.17g" % row[c]) if isinstance(row.get(c), float)
                else str(row.get(c, "")) for c in columns))
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(rows)} rows to {path}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    try:
        rows, orders = convergence_study(levels=args.levels)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BousslabError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 1
    print("n,dt,error")
    for n, dt, err in rows:
        print(f"{n},{dt:.6g},{err:.8e}")
    print("orders:", " ".join("%.3f" % o for o in orders))
    return EXIT_OK if all(o >= 1.9 for o in orders) else 1


def cmd_optimize_rate(args, p, dly, grid, runset) -> int:
    if not 2 <= args.points <= np.iinfo(np.intp).max:
        print(f"configuration error: need 2 to {np.iinfo(np.intp).max} --points, "
              f"got {args.points}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        right = mu1_interval_right(p, dly)
        mu1s, lam_star = optimal_mu1(p, dly)
    except BousslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    try:
        table = np.linspace(0.0, right, args.points)
    except (ValueError, MemoryError) as exc:
        print(f"configuration error: {args.points} --points: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("mu1,f,g")
    for mu1 in table:
        print(f"{mu1:.8g},{f_of_mu1(p, float(mu1)):.8g},"
              f"{g_of_mu1(p, dly, float(mu1)):.8g}")
    print(f"mu1_star = {mu1s!r}")
    print(f"lambda_star = {lam_star!r}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bousslab",
        description="Fifth-order Boussinesq system with delayed boundary "
                    "feedback: simulation, energy monitors, decay certification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="INI configuration path")

    sp = sub.add_parser("check", help="validate and certify a configuration")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("simulate", help="run and emit time series + summary")
    common(sp)
    sp.add_argument("--out", default="out", help="output directory")
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None, dest="T")
    sp.add_argument("--nonlinear", action="store_true", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="parameter sweep from a sweep spec file")
    sp.add_argument("--spec", required=True, help="sweep spec INI path")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("convergence", help="manufactured-solution order study")
    sp.add_argument("--levels", type=int, default=3)
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("optimize-rate", help="print f/g tables and mu1*")
    common(sp)
    sp.add_argument("--points", type=int, default=21)
    sp.set_defaults(func=cmd_optimize_rate)

    args = ap.parse_args(argv)
    if "config" not in args:
        return args.func(args)
    try:
        loaded = _load(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(args, *loaded)


if __name__ == "__main__":
    sys.exit(main())
