"""Flat key=value run configuration: parsing, validation, and presets.

The format is UTF-8 text, one ``dotted.key = value`` per line, ``#`` comments,
no nesting. Lists are comma separated; time grids may also be written as
``start:stop:count`` (an inclusive linspace). The manifest a run echoes back
is itself a valid config, and re-running it reproduces the run byte for byte
on the same numpy build and BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import Field, Grid, NonFiniteFieldError
from .identities import EntropyWeights
from .model import (InitialFamily, ModelParams, reaction_u, reaction_v, source_w,
                    w_lp_exponent_cap)
from .solver import SolverConfig

DEFAULT_EPS_LADDER = tuple(2.0 ** -j for j in range(1, 8))

# the constants C of each certificate kind's tolerance C*(h+dt), calibrated by
# `chemocert refine` on configs/refine.cfg; a config may restate one as
# certify.tol_c.<kind>, but not change it
TOL_C = {
    "mass": 1e-6,
    "weakform_w": 3e-4,
    "weakform_v": 3e-3,
    "entropy": 4e-3,
    "z_evolution": 7e-2,
}

# upper bounds on counts whose arrays grow with them, checked before any is
# allocated: a start:stop:count list holds count doubles, every grid a run
# builds (each refine level's too) holds at most MAX_CELLS cells, the 256^2 of
# the largest shipped run, and the stacked bump family holds
# bumps * (1 + dim) * cells doubles: at 256 bumps 25 MB on 64^2, 0.4 GB on 256^2
MAX_LIST_COUNT = 100_000
MAX_CELLS = 65_536
MAX_BUMPS = 256

# the init.<field>.* options each kind reads, besides ``kind`` itself
INITIAL_OPTIONS = {
    "constant": ("value",),
    "gaussian-bump": ("center", "sigma", "mass"),
}
INITIAL_KINDS = tuple(INITIAL_OPTIONS)
# the option that sets how large each kind's field is
SIZE_OPTIONS = {"constant": "value", "gaussian-bump": "mass"}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config field '{key}': {message}")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(key, f"set twice, on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value
    return out


def _get_float(mapping, key, default=None) -> float:
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "required")
        return default
    try:
        value = float(mapping[key])
    except ValueError:
        raise ConfigError(key, f"not a real number: {mapping[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"not a finite real number: {mapping[key]!r}")
    return value


def _get_int(mapping, key, default=None) -> int:
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "required")
        return default
    try:
        return int(mapping[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {mapping[key]!r}") from None


def require_cells_fit(key: str, cells) -> None:
    """Refuse, as ``key``, a grid of more than ``MAX_CELLS`` cells."""
    if math.prod(cells) > MAX_CELLS:
        raise ConfigError(key, f"a grid of {' x '.join(str(n) for n in cells)} cells "
                               f"exceeds the {MAX_CELLS} cells a grid may hold")


def _get_seed(mapping, key, default: int) -> int:
    seed = _get_int(mapping, key, default)
    if seed < 0:
        raise ConfigError(key, f"seeds must be >= 0, got {seed}")
    return seed


def _get_floats(mapping, key, default=None) -> tuple[float, ...]:
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "required")
        return tuple(default)
    return _parse_float_list(key, mapping[key])


def _parse_float_list(key: str, value: str) -> tuple[float, ...]:
    value = value.strip()
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(key, f"time grid must be start:stop:count, got {value!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(key, f"bad start:stop:count in {value!r}") from None
        if count < 2:
            raise ConfigError(key, "count must be >= 2")
        if count > MAX_LIST_COUNT:
            raise ConfigError(key, f"count must be <= {MAX_LIST_COUNT}, got {count}")
        values = tuple(float(t) for t in np.linspace(start, stop, count))
    else:
        try:
            values = tuple(float(tok) for tok in value.split(",") if tok.strip())
        except ValueError:
            raise ConfigError(key, f"not a comma list of reals: {value!r}") from None
    if not all(math.isfinite(x) for x in values):
        raise ConfigError(key, f"entries must be finite reals, got {value!r}")
    return values


@dataclass(frozen=True)
class InitialSpec:
    """Declarative per-field initial-data description."""

    kind: str
    options: dict[str, str]

    def build(self, grid: Grid, field_name: str) -> Field:
        key = f"init.{field_name}"
        opts = self.options
        if self.kind == "constant":
            return grid.constant_field(_get_float(opts, f"{key}.value"))
        return _gaussian(grid, key, opts)  # the loader admits no third kind


def _gaussian(grid: Grid, key: str, opts: dict[str, str]) -> Field:
    """exp(-|x - center|^2 / (2 sigma^2)), scaled to ``mass`` when it is given."""
    center = _get_floats(opts, f"{key}.center")
    sigma = _get_float(opts, f"{key}.sigma")
    if len(center) != grid.dim:
        raise ConfigError(f"{key}.center", "needs one coordinate per axis")
    if not all(0.0 < c < L for c, L in zip(center, grid.lengths)):
        raise ConfigError(f"{key}.center", f"must lie strictly inside (0, L) on each "
                                           f"axis, L = {grid.lengths}; got {center}")
    if sigma <= 0:
        raise ConfigError(f"{key}.sigma", "must be positive")
    r2 = sum((m - c) ** 2 for m, c in zip(grid.meshes(), center))
    try:
        spread = 2.0 * sigma ** 2  # 0 once the square underflows
    except OverflowError:
        spread = math.inf  # so wide that the bump is flat
    with np.errstate(over="ignore"):  # a cell that far out gets exp(-inf) = 0
        total = np.exp(-r2 / spread) if spread > 0 else np.zeros(grid.shape)
    current = total.sum() * grid.cell_volume
    if not current > 0:
        raise ConfigError(f"{key}.sigma", f"bump has no mass on this grid: sigma {sigma:g} "
                                          f"is too narrow to reach a cell center")
    if f"{key}.mass" in opts:
        target = _get_float(opts, f"{key}.mass")
        if target < 0:
            raise ConfigError(f"{key}.mass", "must be nonnegative")
        scale = target / float(current)  # inf, not a warning, past the largest double
        if not math.isfinite(scale):
            raise ConfigError(f"{key}.mass", f"scaling the bump to {target:g} overflows")
        total *= scale
    return grid.field(total)


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation/certification run needs."""

    grid: Grid
    params: ModelParams
    solver: SolverConfig
    T: float
    output_times: tuple[float, ...]
    initial: dict[str, InitialSpec]
    weights: EntropyWeights
    bump_count: int
    bump_seed: int
    probe_seed: int
    eps_ladder: tuple[float, ...]
    refine_levels: int

    def build_initial_family(self) -> InitialFamily:
        fields = {name: spec.build(self.grid, name)
                  for name, spec in self.initial.items()}
        return InitialFamily(u0=fields["u"], v0=fields["v"], w0=fields["w"])

    @cached_property
    def initial_family(self) -> InitialFamily:
        """The family :meth:`build_initial_family` builds, once per config.

        The load's check and every run read this one build; a config made
        with ``dataclasses.replace`` builds its own.
        """
        return self.build_initial_family()

    def to_mapping(self) -> dict[str, str]:
        """Normalized key=value echo sufficient to reproduce the run."""
        m: dict[str, str] = {}
        m["grid.cells"] = ", ".join(str(n) for n in self.grid.cells)
        m["grid.lengths"] = ", ".join(_fmt(x) for x in self.grid.lengths)
        m["model.theta"] = _fmt(self.params.theta)
        m["model.eps"] = _fmt(self.params.eps)
        m["solver.max_dt"] = _fmt(self.solver.max_dt)
        m["run.T"] = _fmt(self.T)
        m["run.output_times"] = ", ".join(_fmt(t) for t in self.output_times)
        for name, spec in self.initial.items():
            m[f"init.{name}.kind"] = spec.kind
            for k, v in sorted(spec.options.items()):
                m[k] = v
        m["certify.weights"] = f"{_fmt(self.weights.p)}:{_fmt(self.weights.k)}"
        m["certify.bumps"] = str(self.bump_count)
        m["certify.seed"] = str(self.bump_seed)
        m["probe.seed"] = str(self.probe_seed)
        m["sweep.eps_ladder"] = ", ".join(_fmt(x) for x in self.eps_ladder)
        m["refine.levels"] = str(self.refine_levels)
        return m


# 17 significant digits round-trip every float64
FLOAT_FORMAT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FORMAT % x
    return str(x)


def _built(key: str, make, *args):
    """``make(*args)``, with a ``ValueError`` it raises refused as ``key``'s.

    Each object is built one key at a time, so that its own checks name the
    key whose value they refuse.
    """
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    cells_given = _get_floats(mapping, "grid.cells")
    if not all(x.is_integer() for x in cells_given):
        raise ConfigError("grid.cells", f"cells must be integers, got {cells_given}")
    cells = tuple(int(x) for x in cells_given)
    unit = (1.0,) * len(cells)
    _built("grid.cells", Grid, cells, unit)
    require_cells_fit("grid.cells", cells)
    grid = _built("grid.lengths", Grid, cells, _get_floats(mapping, "grid.lengths", unit))

    theta = _get_float(mapping, "model.theta")
    # N of the paper's threshold is the grid's dimension
    _built("model.theta", w_lp_exponent_cap, theta, grid.dim)
    params = _built("model.eps", ModelParams, theta,
                    _get_float(mapping, "model.eps", ModelParams.eps))

    solver = _built("solver.max_dt", SolverConfig, SolverConfig.cfl_safety,
                    _get_float(mapping, "solver.max_dt", SolverConfig.max_dt))

    T = _get_float(mapping, "run.T")
    if T < 0:
        raise ConfigError("run.T", f"must be >= 0, got {T}")
    default_times = tuple(np.linspace(0.0, T, 21)) if T > 0 else (0.0,)
    output_times = _get_floats(mapping, "run.output_times", default_times)
    if any(t < 0 or t > T for t in output_times):
        raise ConfigError("run.output_times", f"times must lie in [0, T]={T}")

    initial = {}
    for name in ("u", "v", "w"):
        kind_key = f"init.{name}.kind"
        kind = mapping.get(kind_key, "constant" if name == "w" else None)
        if kind is None:
            raise ConfigError(kind_key, "required")
        if kind not in INITIAL_KINDS:
            raise ConfigError(kind_key,
                              f"unknown kind {kind!r}; pick one of {INITIAL_KINDS}")
        opts = {k: v for k, v in mapping.items() if k.startswith(f"init.{name}.")}
        for key in opts:
            option = key.removeprefix(f"init.{name}.")
            if option != "kind" and option not in INITIAL_OPTIONS[kind]:
                raise ConfigError(key, f"unknown key for kind {kind!r}")
        if kind == "constant":
            opts.setdefault(f"init.{name}.value", "0")
        initial[name] = InitialSpec(kind=kind, options=opts)

    weights = _built("certify.weights", EntropyWeights,
                     *_parse_weights(mapping.get("certify.weights", "1:2")))

    restated = {key for key in mapping if key.startswith("certify.tol_c.")}
    for key in sorted(restated):
        c = TOL_C.get(key.removeprefix("certify.tol_c."))
        if c is None:
            raise ConfigError(key, "unknown key")
        if _get_float(mapping, key) != c:
            raise ConfigError(key, f"fixed at the calibrated {c:g}; a config may "
                                   f"restate it but not change it")

    eps_ladder = _get_floats(mapping, "sweep.eps_ladder", DEFAULT_EPS_LADDER)
    if any(not (0.0 < e < 1.0) for e in eps_ladder):
        raise ConfigError("sweep.eps_ladder", "entries must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps_ladder[:-1], eps_ladder[1:])):
        raise ConfigError("sweep.eps_ladder", "must be strictly decreasing")
    if len(eps_ladder) < 2:
        raise ConfigError("sweep.eps_ladder",
                          f"a sweep compares rungs and needs >= 2, got {len(eps_ladder)}")

    bump_count = _get_int(mapping, "certify.bumps", 20)
    if not 1 <= bump_count <= MAX_BUMPS:
        raise ConfigError("certify.bumps", f"must lie in [1, {MAX_BUMPS}], got {bump_count}")
    refine_levels = _get_int(mapping, "refine.levels", 3)
    if refine_levels < 3:  # an order is fitted to >= 2 gaps between levels
        raise ConfigError("refine.levels", f"refinement needs >= 3 levels, "
                                           f"got {refine_levels}")

    cfg = RunConfig(
        grid=grid, params=params, solver=solver, T=T,
        output_times=tuple(output_times), initial=initial,
        weights=weights,
        bump_count=bump_count,
        bump_seed=_get_seed(mapping, "certify.seed", 2024),
        probe_seed=_get_seed(mapping, "probe.seed", 7),
        eps_ladder=tuple(eps_ladder),
        refine_levels=refine_levels,
    )
    # the manifest echoes every key read but the restated constants
    unknown = sorted(set(mapping) - set(cfg.to_mapping()) - restated)
    if unknown:
        raise ConfigError(unknown[0], "unknown key")
    _require_finite_terms(cfg)
    return cfg


def _require_finite_terms(cfg: RunConfig) -> None:
    """Refuse the first of u, v, w that, joining zero data in that order, makes a
    reaction, the signal source, one of their integrals over the cells or a norm
    non-finite, by the option setting its size."""
    fields = dict.fromkeys(("u0", "v0", "w0"), cfg.grid.constant_field(0.0))
    theta, eps = cfg.params.theta, cfg.params.eps
    for name, field in zip("uvw", cfg.initial_family.base()):
        fields[f"{name}0"] = field
        u, v = fields["u0"].values, fields["v0"].values
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                terms = [reaction_u(u, v, theta), reaction_v(u, v), source_w(u, v, eps)]
                # the stepper integrates each term as its sum times the cell volume
                terms += [float(term.sum()) * cfg.grid.cell_volume for term in terms]
                terms += InitialFamily(**fields).base_norms(theta).values()
            except NonFiniteFieldError:  # a power inside a norm overflowed
                terms = [math.inf]
        if not all(np.isfinite(term).all() for term in terms):
            raise ConfigError(f"init.{name}.{SIZE_OPTIONS[cfg.initial[name].kind]}",
                              f"the initial {name} overflows a double in a reaction, "
                              "the signal source, an integral of either or a norm "
                              "of the initial data")


def _parse_weights(value: str) -> tuple[float, float]:
    parts = value.split(":")
    if len(parts) != 2:
        raise ConfigError("certify.weights", f"expected one 'p:k' pair, got {value!r}")
    try:
        pair = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise ConfigError("certify.weights", f"bad pair {value!r}") from None
    if not all(math.isfinite(x) for x in pair):
        raise ConfigError("certify.weights", f"pair {value!r} is not finite")
    return pair


def load_config(path: str | Path) -> RunConfig:
    return config_from_mapping(parse_config_text(Path(path).read_text(encoding="utf-8")))
