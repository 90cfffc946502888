"""Line-oriented experiment configuration files.

A config is a sequence of ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment.  Matrix values keep rows separated by semicolons so
numeric content stays auditable in diffs.  A malformed line, an unknown
section or key and a repeated one are rejected with the file name and the
offending line and column.  A config describes the map, dither, design
request, explicit gains and run; which design file to run and how to write
the results are chosen on the command line only.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    "build_dither",
    "build_polytope",
    "resolve_hessian",
    "build_theta_star",
    "build_qmap",
    "build_controller",
    "build_sim_config",
    "SynthesisRequest",
    "build_synthesis_request",
]


class ConfigError(ValueError):
    """Parse or validation failure with source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line else ""
        super().__init__(message + where)


_SCHEMA: dict[str, set[str]] = {
    "map": {
        "q_star", "theta_star", "input_bounds", "hessian", "alpha",
        "polytope", "h0", "delta_bar", "lambda1", "lambda2", "dim",
        "gamma0", "delta_bars",
    },
    "dither": {"amplitudes", "multipliers", "base_omega"},
    "synthesis": {"kind", "eta", "epsilon", "bounds"},
    "controller": {"k", "k_aw"},
    "sim": {"scenario", "theta0", "t_end", "dt", "demod"},
}


def _key_allowed(section: str, key: str) -> bool:
    allowed = _SCHEMA[section]
    if key in allowed:
        return True
    if section == "map":
        # affine families and explicit vertex lists use numbered keys
        for prefix in ("gamma", "vertex"):
            if key.startswith(prefix) and key[len(prefix):].isdigit():
                return True
    return False


@dataclass
class ExperimentConfig:
    """Parsed configuration: ordered sections of raw string values."""

    sections: dict[str, dict[str, str]] = field(default_factory=dict)
    name: str = "<config>"

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ConfigError(f"{self.name}: missing [{section}] {key}")
        return value


def parse_config(text: str, name: str = "<config>") -> ExperimentConfig:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None

    def fail(message: str):
        raise ConfigError(f"{name}: {message}", lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                fail("unterminated section header")
            sec = stripped[1:-1].strip()
            if sec not in _SCHEMA:
                fail(f"unknown section [{sec}]")
            if sec in sections:
                fail(f"duplicate section [{sec}]")
            sections[sec] = {}
            current = sec
            continue
        if current is None:
            fail("key outside any section")
        if "=" not in stripped:
            fail("expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _key_allowed(current, key):
            fail(f"unknown key {key!r} in [{current}]")
        if key in sections[current]:
            fail(f"duplicate key {key!r} in [{current}]")
        if not value:
            fail(f"empty value for {key!r}")
        sections[current][key] = value
    return ExperimentConfig(sections=sections, name=name)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), name=path)


# ---------------------------------------------------------------------------
# typed builders

def _number(text: str) -> float:
    try:
        return matio.parse_number(text)
    except matio.NotA:
        raise
    except ValueError:
        raise matio.NotA("is not a number") from None


def _integer(text: str) -> int:
    value = _number(text)
    if not value.is_integer():
        raise matio.NotA("is not an integer")
    return int(value)


def _positive(text: str) -> float:
    return matio.positive(_number(text))


def _bounds(text: str) -> SaturationBounds:
    return SaturationBounds(matio.parse_vector(text))


def _read(cfg: ExperimentConfig, section: str, key: str, parse=_number):
    """The value of a required key through ``parse``, which every typed read
    uses, so that a bad value is reported with file, section and key."""
    raw = cfg.require(section, key)
    with _about(cfg, f"[{section}] {key} = {raw!r}"):
        return parse(raw)


@contextmanager
def _about(cfg: ExperimentConfig, keys: str):
    """Re-raise a ValueError or OverflowError of a value built from ``keys``
    ("[section] key, ...") as a ConfigError naming the config and them;
    ConfigErrors pass."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        sep = " " if isinstance(exc, matio.NotA) else ": "
        raise ConfigError(f"{cfg.name}: {keys}{sep}{exc}") from None


def build_dither(cfg: ExperimentConfig) -> DitherSpec:
    amps = _read(cfg, "dither", "amplitudes", matio.parse_vector)
    mults = _read(cfg, "dither", "multipliers", matio.parse_fractions)
    with _about(cfg, "[dither] amplitudes, multipliers, base_omega"):
        return DitherSpec(amps, tuple(mults), _read(cfg, "dither", "base_omega"))


def build_polytope(cfg: ExperimentConfig) -> Optional[HessianPolytope]:
    kind = cfg.get("map", "polytope")
    if kind is None:
        return None
    with _about(cfg, f"[map] polytope = {kind!r}"):
        if kind == "scaled_nominal":
            h0 = _read(cfg, "map", "h0", matio.parse_matrix)
            return from_scaled_nominal(h0, _read(cfg, "map", "delta_bar"))
        if kind == "eigen_interval":
            return from_eigen_interval(
                _read(cfg, "map", "lambda1"),
                _read(cfg, "map", "lambda2"),
                _read(cfg, "map", "dim", _integer),
            )
        if kind == "affine":
            gamma0 = _read(cfg, "map", "gamma0", matio.parse_matrix)
            bars = _read(cfg, "map", "delta_bars", matio.parse_vector)
            gammas = [
                _read(cfg, "map", f"gamma{i}", matio.parse_matrix)
                for i in range(1, bars.size + 1)
            ]
            return from_affine(gamma0, gammas, bars.tolist())
        if kind == "vertices":
            verts = []
            i = 1
            while cfg.get("map", f"vertex{i}") is not None:
                verts.append(_read(cfg, "map", f"vertex{i}", matio.parse_matrix))
                i += 1
            if not verts:
                raise ConfigError(f"{cfg.name}: polytope kind 'vertices' lists none")
            return HessianPolytope(tuple(verts))
        raise ConfigError(f"{cfg.name}: unknown polytope kind {kind!r}")


def resolve_hessian(cfg: ExperimentConfig, poly: Optional[HessianPolytope]) -> np.ndarray:
    """True curvature for simulation: explicit, or a polytope mix by alpha."""
    if cfg.get("map", "hessian") is not None:
        return _read(cfg, "map", "hessian", matio.parse_matrix)
    if poly is None:
        raise ConfigError(
            f"{cfg.name}: [map] needs either 'hessian' or a polytope"
        )
    if cfg.get("map", "alpha") is None:
        raise ConfigError(
            f"{cfg.name}: simulating from a polytope needs [map] alpha weights"
        )
    with _about(cfg, "[map] alpha, polytope"):
        return evaluate(poly, _read(cfg, "map", "alpha", matio.parse_vector))


def build_theta_star(cfg: ExperimentConfig) -> np.ndarray:
    """[map] theta_star, the map's optimizer."""
    return _read(cfg, "map", "theta_star", matio.parse_vector)


def _check_input_bounds(cfg: ExperimentConfig) -> None:
    """The map input saturates at one set of bounds, with the optimizer
    strictly inside: [map] input_bounds and, in an anti-windup config
    ([synthesis] kind = aw), [synthesis] bounds must agree where both are
    given, and [map] theta_star must lie strictly inside them."""
    keys = [("map", "input_bounds")] if cfg.get("map", "input_bounds") is not None else []
    if cfg.get("synthesis", "kind") == "aw":
        keys.append(("synthesis", "bounds"))
    if not keys:
        return
    stated = [f"[{section}] {key} = {cfg.get(section, key)!r}" for section, key in keys]
    limits = [_read(cfg, section, key, _bounds).limits for section, key in keys]
    if len(limits) == 2 and not np.array_equal(*limits):
        raise ConfigError(
            f"{cfg.name}: {stated[0]} and {stated[1]} differ; an anti-windup "
            "loop has one set of input bounds"
        )
    theta_star = build_theta_star(cfg)
    if theta_star.shape == limits[0].shape and np.any(np.abs(theta_star) >= limits[0]):
        raise ConfigError(
            f"{cfg.name}: [map] theta_star = {cfg.get('map', 'theta_star')!r} must "
            f"lie strictly inside {stated[0]}"
        )


def build_qmap(cfg: ExperimentConfig, hessian: np.ndarray) -> QuadraticMap:
    """The simulated map with the given (``resolve_hessian``) curvature."""
    _check_input_bounds(cfg)
    has_bounds = cfg.get("map", "input_bounds") is not None
    q_star = _read(cfg, "map", "q_star")
    theta_star = build_theta_star(cfg)
    bounds = _read(cfg, "map", "input_bounds", _bounds) if has_bounds else None
    curvature = "hessian" if cfg.get("map", "hessian") is not None else "polytope"
    with _about(cfg, f"[map] theta_star, {curvature}"):
        return QuadraticMap(q_star, theta_star, 0.5 * (hessian + hessian.T), bounds)


@dataclass(frozen=True)
class SynthesisRequest:
    kind: str                      # aw | gradsat
    eta: float
    epsilon: Optional[float]
    bounds: SaturationBounds


def build_synthesis_request(cfg: ExperimentConfig) -> SynthesisRequest:
    if "synthesis" not in cfg.sections:
        raise ConfigError(f"{cfg.name}: missing [synthesis] section")
    kind = cfg.require("synthesis", "kind")
    if kind not in ("aw", "gradsat"):
        raise ConfigError(f"{cfg.name}: unknown synthesis kind {kind!r}")
    _check_input_bounds(cfg)
    has_eps = cfg.get("synthesis", "epsilon") is not None
    return SynthesisRequest(
        kind=kind,
        eta=_read(cfg, "synthesis", "eta", _positive),
        epsilon=_read(cfg, "synthesis", "epsilon", _positive) if has_eps else None,
        bounds=_read(cfg, "synthesis", "bounds", _bounds),
    )


def _scenario(cfg: ExperimentConfig) -> str:
    scenario = cfg.require("sim", "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"{cfg.name}: unknown scenario {scenario!r}")
    return scenario


def build_controller(cfg: ExperimentConfig, qmap: QuadraticMap, design=None):
    """Controller running a loaded design's gains when one is given, else the
    config's [controller] k (and k_aw for the anti-windup loop), of the map's
    dimension."""
    scenario = _scenario(cfg)
    kind = SCENARIOS[scenario][0]
    if design is not None and design.kind != kind:
        raise ConfigError(
            f"{cfg.name}: scenario {scenario!r} cannot run a design of kind "
            f"{design.kind!r}"
        )
    if kind == "aw" and qmap.input_bounds is None:
        raise ConfigError(f"{cfg.name}: [map] input_bounds required")
    if design is not None:
        source = "the design"
        if kind == "aw":
            ctrl = AwController(design.k, design.k_aw)
        else:
            ctrl = GradSatController(design.k, design.bounds)
    else:
        source = "[controller] k"
        k = _read(cfg, "controller", "k", matio.parse_matrix)
        keys = "[controller] k, " + ("k_aw" if kind == "aw" else "[synthesis] bounds")
        with _about(cfg, keys):
            if kind == "aw":
                k_aw = _read(cfg, "controller", "k_aw", matio.parse_matrix)
                ctrl = AwController(k, k_aw)
            else:
                ctrl = GradSatController(k, build_synthesis_request(cfg).bounds)
    if ctrl.dim != qmap.dim:
        raise ConfigError(
            f"{cfg.name}: {source} gives a controller of dimension {ctrl.dim} "
            f"for a map of dimension {qmap.dim}"
        )
    return ctrl


def build_sim_config(
    cfg: ExperimentConfig,
    qmap: QuadraticMap,
    dither: DitherSpec,
    controller,
) -> SimConfig:
    scenario = _scenario(cfg)
    auto_dt = cfg.get("sim", "dt", "auto") == "auto"
    dt = None if auto_dt else _read(cfg, "sim", "dt")
    demod = cfg.get("sim", "demod", "deviation")
    if demod not in ("deviation", "raw"):
        raise ConfigError(f"{cfg.name}: [sim] demod must be deviation or raw")
    theta0 = _read(cfg, "sim", "theta0", matio.parse_vector)
    with _about(cfg, "[sim] theta0, t_end, dt, [map] theta_star, [dither] amplitudes"):
        return SimConfig(
            scenario, qmap, dither, controller, theta0, _read(cfg, "sim", "t_end"), dt,
            demod_remove_offset=(demod == "deviation"),
        )

