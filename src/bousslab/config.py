"""Structured text configuration: sections [system], [delay], [grid], [run]."""

from __future__ import annotations

import configparser
import io
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError
from .params import (DelaySpec, Grid, SystemParams, _check_dt, _check_flag, _step_count,
                     constant_history)


@dataclass(frozen=True)
class RunSettings:
    """Run-control knobs from the [run] section: `dt` by `params._check_dt`, the
    horizon `T` by `params._step_count`, the flags by `params._check_flag`,
    `eta0` and `omega0` by `profile_spec` (slowmode, which sets the whole
    state, for eta0 only), `seed` a nonnegative integer."""

    T: float = 5.0
    dt: float = 1e-3
    nonlinear: bool = False
    eta0: str = "cubic 1.0"
    omega0: str = "quartic 1.0"
    seed: int = 0
    store_fields: bool = False

    def __post_init__(self):
        _check_dt(self.dt)
        _step_count(self.T, self.dt)
        _check_flag("nonlinear", self.nonlinear)
        _check_flag("store_fields", self.store_fields)
        profile_spec(self.eta0)
        if profile_spec(self.omega0)[0] == "slowmode":
            raise ConfigurationError("omega0 cannot be 'slowmode': the slow mode sets eta, "
                                     "omega and the history, so only eta0 names it")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")


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
        return "constant %.17g" % values.flat[0]
    return " ".join("%.17g" % v for v in values)


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(raw: str, like):
    """`raw` read as the type of `like`: a bool (`_BOOL`), an int, a float, a
    history array (`_parse_history`) or a string."""
    if isinstance(like, np.ndarray):
        return _parse_history(raw)
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


# initial-profile families and the most arguments each takes, all optional
_PROFILES = {"zero": 0, "quartic": 1, "cubic": 1, "sine": 2, "gauss": 3,
             "random": 1, "slowmode": 1}


def profile_spec(spec: str) -> tuple[str, list[float]]:
    """The family name and arguments of an initial-profile spec ("zero" when
    empty).  Raises ConfigurationError on a spec that is not a string, an
    unknown family, more arguments than it takes, an argument that is not a
    finite number, or a gauss width w <= 0."""
    if not isinstance(spec, str):
        raise ConfigurationError(f"an initial profile is a string, got {spec!r}")
    name, *toks = spec.split() or ["zero"]
    if name not in _PROFILES:
        raise ConfigurationError(f"unknown initial profile {spec!r}")
    if len(toks) > _PROFILES[name]:
        raise ConfigurationError(
            f"initial profile {name!r} takes at most {_PROFILES[name]} arguments: {spec!r}")
    try:
        args = [float(x) for x in toks]
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse initial profile {spec!r}: {exc}") from exc
    if not np.all(np.isfinite(args)):
        raise ConfigurationError(f"initial profile {spec!r} has a non-finite argument")
    if name == "gauss" and len(args) > 2 and not args[2] > 0:
        raise ConfigurationError(f"initial profile {spec!r} needs a positive width")
    return name, args


def initial_profile(spec: str, nodes: np.ndarray, L: float,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """Named initial-condition families on the interior nodes.

    zero | quartic A | cubic A | sine A k | gauss A x0 w | random A
    (`profile_spec`; A defaults to 1).  quartic satisfies the clamped
    conditions; cubic additionally has zero curvature at x = 0; sine is the
    boundary-compatible modulated sine.
    """
    name, args = profile_spec(spec)
    A = args[0] if args else 1.0
    x = nodes
    if name == "zero":
        return np.zeros_like(x)
    if name == "quartic":
        return A * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "cubic":
        return A * x ** 3 * (L - x) ** 2 / L ** 5
    if name == "sine":
        k = args[1] if len(args) > 1 else 1.0
        return A * np.sin(k * np.pi * x / L) * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "gauss":
        x0 = args[1] if len(args) > 1 else 0.5 * L
        w = args[2] if len(args) > 2 else 0.1 * L
        return A * np.exp(-((x - x0) / w) ** 2) * x ** 2 * (L - x) ** 2 / L ** 4
    if name == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        return A * rng.standard_normal(x.shape) * x ** 2 * (L - x) ** 2 / L ** 4
    raise ConfigurationError(
        "'slowmode' initial data is resolved by the runner, not by initial_profile")


_SECTIONS = ("system", "delay", "grid", "run")


def _read_ini(text: str) -> configparser.ConfigParser:
    """Configuration or sweep-spec text as a ConfigParser, keys case-sensitive
    and values as written (no % interpolation); ConfigurationError when it
    does not parse."""
    # no header can name a section "\n", so [DEFAULT] is a section like any
    # other, refused by name, not one whose keys configparser copies into all
    cp = configparser.ConfigParser(interpolation=None, default_section="\n")
    cp.optionxform = str  # field names are case-sensitive (L, M, T)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot read configuration: {exc}") from exc
    return cp


def _read_section(cp: configparser.ConfigParser, name: str, defaults: dict) -> dict:
    """The keys given in section [name] (none when it is absent), each coerced
    like its entry in `defaults` (`_coerce`); ConfigurationError on a key
    `defaults` does not have.  A key not given is left out, so a field whose
    default depends on others (`SystemParams.c_nl`) is worked out again."""
    kwargs = {}
    for key, raw in cp.items(name) if cp.has_section(name) else ():
        if key not in defaults:
            raise ConfigurationError(f"unknown key {key!r} in section [{name}]; "
                                     f"expected one of {', '.join(defaults)}")
        kwargs[key] = _coerce(raw, defaults[key])
    return kwargs


def _config_from(cp: configparser.ConfigParser):
    """`parse_config` of text already read by `_read_ini`."""
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigurationError(
                f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}")

    try:
        # every section is read before any is built; each key is coerced like
        # the value a default-built section holds
        sys_kwargs = _read_section(cp, "system", asdict(SystemParams()))
        dly_kwargs = _read_section(cp, "delay", asdict(DelaySpec()))
        run_kwargs = _read_section(cp, "run", asdict(RunSettings()))
        grid_kwargs = {"n": 200}
        grid_kwargs.update(_read_section(cp, "grid", grid_kwargs))
        p = SystemParams(**sys_kwargs)
        dly = DelaySpec(**dly_kwargs)
        run = RunSettings(**run_kwargs)
        grid = Grid(L=p.L, **grid_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc
    return p, dly, grid, run


def parse_config(text: str) -> tuple[SystemParams, DelaySpec, Grid, RunSettings]:
    """Parse configuration text (not a path: callers read the file).

    Raises ConfigurationError on a section other than [system], [delay],
    [grid] and [run], on a key its section does not have, on a value that
    does not parse, or on values that a section's constructor refuses."""
    return _config_from(_read_ini(text))


def serialize_config(p: SystemParams, dly: DelaySpec, grid: Grid,
                     run: RunSettings) -> str:
    """The text `parse_config` reads back as (p, dly, grid, run): each section's
    fields in field order, [grid]'s n only (`parse_config` refuses L there);
    history as `_history_to_text` writes it, strings as they are, else the repr
    of the Python scalar (`.item()`), so a numpy scalar writes its digits."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    sections = asdict(p), asdict(dly), {"n": grid.n}, asdict(run)
    for name, items in zip(_SECTIONS, sections):
        if "history" in items:
            items["history"] = _history_to_text(items["history"])
        cp[name] = {key: v if isinstance(v, str) else repr(np.asarray(v).item())
                    for key, v in items.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
