"""Line-oriented experiment configuration files.

A config is a sequence of ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment.  Matrix values keep rows separated by semicolons so
numeric content stays auditable in diffs.  ``parse_config`` types each
value by its kind in ``_KEYS``, then runs the checks across keys that need
no command and builds, once, each object the config describes; the commands
run those objects.  An error about a key reads ``path:line:col: [section]
key = 'raw': reason``; one across keys names them and points at the last of
them in the file.  A config describes the map, dither, design request,
explicit gains and run; which design file to run and how to write the
results are chosen on the command line only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matio
from .plant import AwController, GradSatController, QuadraticMap, SaturationBounds
from .polytope import (
    HessianPolytope,
    evaluate,
    from_affine,
    from_eigen_interval,
    from_scaled_nominal,
)
from .signals import DitherSpec
from .sim import SCENARIOS, SimConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "build_dither",
    "build_polytope",
    "resolve_hessian",
    "build_qmap",
    "build_controller",
    "build_sim_config",
    "SynthesisRequest",
    "build_synthesis_request",
]


class ConfigError(ValueError):
    """A config that does not parse or does not fit, at its position if it has one."""

    def __init__(self, name: str, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{name}:{line}:{col}: {message}" if line else f"{name}: {message}")


class _Missing(ConfigError):
    """A key that a builder needs is not in the config."""


# polytope kind -> (its [map] keys, its numbered family, constructor)
_POLYTOPES = {
    "scaled_nominal": (("h0", "delta_bar"), None, from_scaled_nominal),
    "eigen_interval": (("lambda1", "lambda2", "dim"), None, from_eigen_interval),
    "affine": (
        ("gamma0", "delta_bars"),
        "gamma",
        lambda gamma0, bars, *gammas: from_affine(gamma0, list(gammas), bars.tolist()),
    ),
    "vertices": ((), "vertex", lambda *vertices: HessianPolytope(vertices)),
}

# The value kind of every key: a kind of matio.KINDS, "step" (auto or a
# number) or the tuple of words it takes.  "<i>" stands for 1, 2, ...: a
# numbered family starts at 1 and has no gaps.
_KEYS = {
    "map": {
        "q_star": "number", "theta_star": "vector", "input_bounds": "bounds",
        "hessian": "matrix", "alpha": "vector", "polytope": tuple(_POLYTOPES),
        "h0": "matrix", "delta_bar": "number", "lambda1": "number",
        "lambda2": "number", "dim": "integer", "gamma0": "matrix",
        "delta_bars": "vector", "gamma<i>": "matrix", "vertex<i>": "matrix",
    },
    "dither": {"amplitudes": "vector", "multipliers": "rationals", "base_omega": "number"},
    "synthesis": {
        "kind": ("aw", "gradsat"), "eta": "positive", "epsilon": "positive",
        "bounds": "bounds",
    },
    "controller": {"k": "matrix", "k_aw": "matrix"},
    "sim": {
        "scenario": tuple(SCENARIOS), "theta0": "vector", "t_end": "number",
        "dt": "step", "demod": ("deviation", "raw"),
    },
}

# The keys whose values have the loop's dimension, as the polytope has, in
# the order the first present one sets it; constructors check the others.
_DIMENSIONED = (
    ("map", "theta_star"), ("synthesis", "bounds"), ("dither", "amplitudes"), ("sim", "theta0"),
)


def _numbered(key: str) -> tuple[str, int]:
    """(family, i) of a key ``family<i>``, else (key, -1)."""
    family = key.rstrip("0123456789")
    digits = key[len(family):]
    if not digits or digits != str(int(digits)):
        return key, -1
    return family, int(digits)


def _kind(section: str, key: str):
    kinds = _KEYS[section]
    family, i = _numbered(key)
    if "<" in key or key not in kinds and i < 0:
        return None
    return kinds.get(key, kinds.get(f"{family}<i>"))


def _typed(kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise ValueError(f"not one of {', '.join(kind)}")
        return text
    if kind == "step":
        return None if text == "auto" else matio.parse_number(text)
    return matio.KINDS[kind](text)


@dataclass
class ExperimentConfig:
    """A loaded config: each present key's typed value and where it stands,
    and each object that the load built from them."""

    name: str = "<config>"
    # (section, key) -> typed value, and -> (line, col, raw text), in file order
    values: dict = field(default_factory=dict)
    where: dict = field(default_factory=dict)
    # polytope, request, dither, map, controller, run -> the object, or the
    # _Missing that stopped its build
    objects: dict = field(default_factory=dict)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.values

    def __getitem__(self, key: tuple[str, str]):
        """The typed value of a key that the caller needs."""
        if key not in self.values:
            raise _Missing(self.name, f"missing [{key[0]}] {key[1]}")
        return self.values[key]

    def error(self, keys, reason: str) -> ConfigError:
        """An error about present keys, at the last of them in the file; a
        lone key is quoted with its text."""
        line, col, raw = max(self.where[key] for key in keys)
        if len(keys) == 1:
            what = "[{}] {} = {!r}".format(*keys[0], raw)
        else:
            names = [
                key if i and section == keys[i - 1][0] else f"[{section}] {key}"
                for i, (section, key) in enumerate(keys)
            ]
            what = ", ".join(names)
        return ConfigError(self.name, f"{what}: {reason}", line, col)

    def built(self, what: str):
        """The object the load built; a command that needs one the load
        could not build gets the error that stopped it."""
        obj = self.objects[what]
        if isinstance(obj, _Missing):
            raise obj
        return obj

    def run(self, design=None) -> SimConfig:
        """The config's run, or the run of a loaded design's gains on the
        config's map and dither."""
        if design is None:
            return self.built("run")
        qmap, dither = self.built("map"), self.built("dither")
        return build_sim_config(self, qmap, dither, build_controller(self, qmap, design))


def parse_config(text: str, name: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig(name)
    seen: set[str] = set()
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = (lineno, raw.index(line[0]) + 1)
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(name, "unterminated section header", *at)
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(name, f"unknown section [{section}]", *at)
            if section in seen:
                raise ConfigError(name, f"duplicate section [{section}]", *at)
            seen.add(section)
            continue
        if section is None:
            raise ConfigError(name, "key outside any section", *at)
        if "=" not in line:
            raise ConfigError(name, "expected 'key = value'", *at)
        key, _, value = (part.strip() for part in line.partition("="))
        kind = _kind(section, key)
        if kind is None:
            raise ConfigError(name, f"unknown key {key!r} in [{section}]", *at)
        if (section, key) in cfg.where:
            raise ConfigError(name, f"duplicate key {key!r} in [{section}]", *at)
        cfg.where[section, key] = (*at, value)
        try:
            cfg.values[section, key] = _typed(kind, value)
        except ValueError as exc:
            raise cfg.error([(section, key)], str(exc)) from None
    _check(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), name=path)


# ---------------------------------------------------------------------------
# checks at load


def _check(cfg: ExperimentConfig) -> None:
    """The checks that need no command: numbered families, keys that the
    config's own choices read, the loop's one dimension and one set of
    anti-windup bounds, then each object the config describes, built and
    kept where the keys it needs are present."""
    for section, key in cfg.where:
        family, i = _numbered(key)
        if key not in _KEYS[section] and i != 1 and (section, f"{family}{i - 1}") not in cfg:
            gap = f"{family}{i - 1} is missing" if i else f"{family} keys start at 1"
            raise cfg.error([(section, key)], gap)
        unread = _unread(cfg, section, key)
        if unread:
            raise cfg.error([(section, key)], unread)
    poly = _kept(build_polytope, cfg)
    sized = [(key, cfg.values[key]) for key in _DIMENSIONED if key in cfg]
    if isinstance(poly, HessianPolytope):
        sized.append((("map", "polytope"), poly))
    dims = [(key, v.dim if hasattr(v, "dim") else v.size) for key, v in sized]
    for key, dim in dims[1:]:
        if dim != dims[0][1]:
            first, n = dims[0]
            raise cfg.error([first, key], f"{key[1]} has dimension {dim}, {first[1]} {n}")
    bounds = ("synthesis", "bounds")
    if cfg.values.get(("synthesis", "kind")) == "aw" and bounds in cfg:
        limits = cfg.values[bounds].limits
        inputs, theta_star = ("map", "input_bounds"), ("map", "theta_star")
        if inputs in cfg and not np.array_equal(cfg.values[inputs].limits, limits):
            raise cfg.error(
                [inputs, bounds], "an anti-windup loop has one set of input bounds"
            )
        if theta_star in cfg and np.any(np.abs(cfg.values[theta_star]) >= limits):
            raise cfg.error(
                [theta_star, bounds], "theta_star must lie strictly inside the input bounds"
            )
    dither = _kept(build_dither, cfg)
    # a run from [map] hessian reads no polytope, so only a run from the
    # alpha mix stops at a polytope key that is missing
    hessian = cfg.values.get(("map", "hessian"))
    if hessian is None:
        hessian = _kept(resolve_hessian, cfg, poly)
    qmap = _kept(build_qmap, cfg, hessian)
    ctrl = _kept(build_controller, cfg, qmap)
    cfg.objects = dict(
        polytope=poly or _Missing(cfg.name, "[map] must define a polytope for gain design"),
        request=_kept(build_synthesis_request, cfg), dither=dither, map=qmap,
        controller=ctrl, run=_kept(build_sim_config, cfg, qmap, dither, ctrl),
    )


def _unread(cfg: ExperimentConfig, section: str, key: str) -> Optional[str]:
    """Why the config's own choices read no value of a present key, if they read none."""
    if (section, key) == ("map", "alpha") and ("map", "hessian") in cfg:
        return "not read beside [map] hessian"
    if (section, key) == ("synthesis", "epsilon") and cfg.values.get((section, "kind")) == "aw":
        return "not read under kind = aw"
    scenario = cfg.values.get(("sim", "scenario"))
    if (section, key) == ("controller", "k_aw") and scenario and SCENARIOS[scenario][0] != "aw":
        return f"not read under scenario = {scenario}"
    chosen = cfg.values.get(("map", "polytope"))
    family = _numbered(key)[0]
    if section == "map" and any(
        key in named or family == numbered
        for kind, (named, numbered, _) in _POLYTOPES.items()
        if kind != chosen
    ):
        if chosen is None:
            return "not read without [map] polytope"
        return f"not read under polytope = {chosen}"
    return None


def _kept(make, *args):
    """make(*args), or the _Missing that stops it: the first among its
    arguments, else its own."""
    for arg in args:
        if isinstance(arg, _Missing):
            return arg
    try:
        return make(*args)
    except _Missing as exc:
        return exc


def _construct(cfg: ExperimentConfig, keys, make, *args, **kwargs):
    """make(*args, **kwargs), whose ValueError is an error about ``keys``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise cfg.error(keys, str(exc)) from None


# ---------------------------------------------------------------------------
# builders


def build_dither(cfg: ExperimentConfig) -> DitherSpec:
    keys = [("dither", key) for key in ("amplitudes", "multipliers", "base_omega")]
    amps, mults, omega = (cfg[key] for key in keys)
    return _construct(cfg, keys, DitherSpec, amps, tuple(mults), omega)


def build_polytope(cfg: ExperimentConfig) -> Optional[HessianPolytope]:
    """The [map] polytope, or None where the config names none."""
    if ("map", "polytope") not in cfg:
        return None
    named, family, make = _POLYTOPES[cfg["map", "polytope"]]
    members = []
    while family and ("map", f"{family}{len(members) + 1}") in cfg:
        members.append(f"{family}{len(members) + 1}")
    keys = [("map", key) for key in ("polytope", *named, *members)]
    return _construct(cfg, keys, make, *(cfg[key] for key in keys[1:]))


def resolve_hessian(cfg: ExperimentConfig, poly: Optional[HessianPolytope]) -> np.ndarray:
    """True curvature for simulation: explicit, or a polytope mix by alpha."""
    if ("map", "hessian") in cfg:
        return cfg["map", "hessian"]
    if poly is None:
        raise _Missing(cfg.name, "[map] needs either 'hessian' or a polytope")
    if ("map", "alpha") not in cfg:
        raise _Missing(cfg.name, "simulating from a polytope needs [map] alpha weights")
    keys = [("map", "alpha"), ("map", "polytope")]
    return _construct(cfg, keys, evaluate, poly, cfg["map", "alpha"])


def build_qmap(cfg: ExperimentConfig, hessian: np.ndarray) -> QuadraticMap:
    """The simulated map with the given (``resolve_hessian``) curvature."""
    curvature = "hessian" if ("map", "hessian") in cfg else "polytope"
    keys = [("map", k) for k in ("theta_star", curvature, "input_bounds") if ("map", k) in cfg]
    return _construct(
        cfg, keys, QuadraticMap, cfg["map", "q_star"], cfg["map", "theta_star"],
        0.5 * (hessian + hessian.T), cfg.values.get(("map", "input_bounds")),
    )


@dataclass(frozen=True)
class SynthesisRequest:
    kind: str                      # aw | gradsat
    eta: float
    epsilon: Optional[float]
    bounds: SaturationBounds


def build_synthesis_request(cfg: ExperimentConfig) -> SynthesisRequest:
    return SynthesisRequest(
        kind=cfg["synthesis", "kind"],
        eta=cfg["synthesis", "eta"],
        epsilon=cfg.values.get(("synthesis", "epsilon")),
        bounds=cfg["synthesis", "bounds"],
    )


def build_controller(cfg: ExperimentConfig, qmap: QuadraticMap, design=None):
    """Controller running a loaded design's gains when one is given, else the
    config's [controller] k (and k_aw for the anti-windup loop), of the map's
    dimension."""
    scenario = cfg["sim", "scenario"]
    kind = SCENARIOS[scenario][0]
    if design is not None and design.kind != kind:
        raise ConfigError(
            cfg.name, f"scenario {scenario!r} cannot run a design of kind {design.kind!r}"
        )
    if kind == "aw" and qmap.input_bounds is None:
        raise _Missing(cfg.name, "missing [map] input_bounds")
    # a design has the gains under the names of the config's keys
    if kind == "aw":
        make, keys = AwController, [("controller", "k"), ("controller", "k_aw")]
    else:
        make, keys = GradSatController, [("controller", "k"), ("synthesis", "bounds")]
    if design is None:
        ctrl = _construct(cfg, keys, make, *(cfg[key] for key in keys))
    else:
        ctrl = make(*(getattr(design, key) for _, key in keys))
    if ctrl.dim != qmap.dim:
        reason = f"a controller of dimension {ctrl.dim} for a map of dimension {qmap.dim}"
        if design is None:
            raise cfg.error(keys, reason)
        raise ConfigError(cfg.name, f"the design gives {reason}")
    return ctrl


def build_sim_config(
    cfg: ExperimentConfig,
    qmap: QuadraticMap,
    dither: DitherSpec,
    controller,
) -> SimConfig:
    keys = [("sim", key) for key in ("t_end", "dt") if ("sim", key) in cfg]
    return _construct(
        cfg, keys, SimConfig,
        cfg["sim", "scenario"], qmap, dither, controller, cfg["sim", "theta0"],
        cfg["sim", "t_end"], cfg.values.get(("sim", "dt")),
        demod_remove_offset=cfg.values.get(("sim", "demod"), "deviation") == "deviation",
    )
