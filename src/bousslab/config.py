"""Structured text configuration: sections [system], [delay], [grid], [run]."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigurationError
from .params import DelaySpec, Grid, SystemParams, constant_history
from .stepping import suggested_theta


@dataclass(frozen=True)
class RunSettings:
    """Run-control knobs from the [run] section."""

    T: float = 5.0
    dt: float = 1e-3
    theta: float | str = "auto"      # "auto" -> suggested_theta(dt) = 1/2 + 2 dt
    nonlinear: bool = False
    rho_res: int = 64
    mu1: float | str = "auto"        # "auto" -> certificate's optimal value
    mu2: float | str = "auto"
    eta0: str = "cubic 1.0"
    omega0: str = "quartic 1.0"
    seed: int = 0
    store_fields: bool = False

    def resolve_theta(self) -> float:
        if self.theta == "auto":
            return suggested_theta(self.dt)
        return float(self.theta)


def _parse_history(text: str) -> np.ndarray:
    toks = text.split()
    if not toks or toks[0] == "zero":
        return np.zeros(2)
    if toks[0] == "constant":
        if len(toks) != 2:
            raise ConfigurationError(f"history 'constant' needs one value, got {text!r}")
        return constant_history(float(toks[1]))
    try:
        return np.array([float(x) for x in toks])
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse history samples {text!r}") from exc


def _history_to_text(values: np.ndarray) -> str:
    values = np.asarray(values)
    if np.all(values == 0.0):
        return "zero"
    if np.all(values == values.flat[0]):
        return f"constant {values.flat[0]!r}"
    return " ".join("%.17g" % v for v in values)


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(raw: str, like):
    if isinstance(like, bool):
        key = raw.strip().lower()
        if key not in _BOOL:
            raise ConfigurationError(f"cannot parse boolean {raw!r}")
        return _BOOL[key]
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def initial_profile(spec: str, nodes: np.ndarray, L: float,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Named initial-condition families on the interior nodes.

    zero | quartic A | cubic A | sine A k | gauss A x0 w | random A
    quartic satisfies the clamped conditions; cubic additionally has zero
    curvature at x = 0; sine is the boundary-compatible modulated sine.
    """
    toks = spec.split()
    name = toks[0] if toks else "zero"
    args = [float(x) for x in toks[1:]]
    x = nodes
    if name == "zero":
        return np.zeros_like(x)
    if name == "quartic":
        (A,) = args or (1.0,)
        return A * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "cubic":
        (A,) = args or (1.0,)
        return A * x ** 3 * (L - x) ** 2 / L ** 5
    if name == "sine":
        A = args[0] if args else 1.0
        k = args[1] if len(args) > 1 else 1.0
        return A * np.sin(k * np.pi * x / L) * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "gauss":
        A = args[0] if args else 1.0
        x0 = args[1] if len(args) > 1 else 0.5 * L
        w = args[2] if len(args) > 2 else 0.1 * L
        return A * np.exp(-((x - x0) / w) ** 2) * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "random":
        A = args[0] if args else 1.0
        if rng is None:
            rng = np.random.default_rng(0)
        return A * rng.standard_normal(x.shape) * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "slowmode":
        raise ConfigurationError(
            "'slowmode' initial data is resolved by the runner, not by initial_profile")
    raise ConfigurationError(f"unknown initial profile {spec!r}")


def parse_config(text: str) -> tuple[SystemParams, DelaySpec, Grid, RunSettings]:
    """Parse configuration text (not a path: callers read the file)."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # field names are case-sensitive (L, M, T)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot read configuration: {exc}") from exc

    def section(name, builder, special=()):
        kwargs = {}
        if not cp.has_section(name):
            return kwargs
        proto = builder()
        defaults = {f.name: getattr(proto, f.name) for f in dc_fields(proto)}
        for key, raw in cp.items(name):
            if key in special:
                kwargs[key] = raw
                continue
            if key not in defaults:
                raise ConfigurationError(f"unknown key {key!r} in section [{name}]")
            kwargs[key] = _coerce(raw, defaults[key])
        return kwargs

    try:
        sys_kwargs = section("system", SystemParams)
        dly_kwargs = section("delay", DelaySpec, special=("history",))
        if "history" in dly_kwargs:
            dly_kwargs["history"] = _parse_history(dly_kwargs["history"])
        run_kwargs = section("run", RunSettings,
                             special=("theta", "mu1", "mu2", "eta0", "omega0"))
        for key in ("theta", "mu1", "mu2"):
            if key in run_kwargs and run_kwargs[key] != "auto":
                run_kwargs[key] = float(run_kwargs[key])
        n = 200
        if cp.has_section("grid") and cp.has_option("grid", "n"):
            n = int(cp.get("grid", "n"))
        p = SystemParams(**sys_kwargs)
        dly = DelaySpec(**dly_kwargs)
        run = RunSettings(**run_kwargs)
        grid = Grid(n=n, L=p.L)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc
    return p, dly, grid, run


def serialize_config(p: SystemParams, dly: DelaySpec, grid: Grid,
                     run: RunSettings) -> str:
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp["system"] = {f.name: repr(getattr(p, f.name)) for f in dc_fields(p)}
    dly_items = {}
    for f in dc_fields(dly):
        v = getattr(dly, f.name)
        if f.name == "history":
            dly_items["history"] = _history_to_text(dly.history)
        else:
            dly_items[f.name] = v if isinstance(v, str) else repr(v)
    cp["delay"] = dly_items
    cp["grid"] = {"n": str(grid.n)}
    run_items = {}
    for f in dc_fields(run):
        v = getattr(run, f.name)
        run_items[f.name] = v if isinstance(v, str) else repr(v)
    cp["run"] = run_items
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
