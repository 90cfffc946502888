"""Line-oriented experiment configuration files.

A config is a sequence of ``[section]`` headers and ``key = value`` lines;
``#`` starts a comment.  Matrix values keep rows separated by semicolons so
numeric content stays auditable in diffs.  Unknown sections or keys are
rejected with the offending line and column.
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
    "build_dither",
    "build_polytope",
    "resolve_hessian",
    "build_theta_star",
    "build_qmap",
    "build_controller",
    "build_sim_config",
    "SynthesisRequest",
    "build_synthesis_request",
    "build_stride",
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
    "controller": {"source", "k", "k_aw"},
    "sim": {"scenario", "theta0", "t_end", "dt", "demod"},
    "outputs": {"stride", "plot"},
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

    def has_section(self, section: str) -> bool:
        return section in self.sections


def parse_config(text: str, name: str = "<config>") -> ExperimentConfig:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, col)
            sec = stripped[1:-1].strip()
            if sec not in _SCHEMA:
                raise ConfigError(f"unknown section [{sec}]", lineno, col)
            if sec in sections:
                raise ConfigError(f"duplicate section [{sec}]", lineno, col)
            sections[sec] = {}
            current = sec
            continue
        if current is None:
            raise ConfigError("key outside any section", lineno, col)
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno, col)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not _key_allowed(current, key):
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno, col)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno, col)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno, col)
        sections[current][key] = value
    return ExperimentConfig(sections=sections, name=name)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read(), name=path)


# ---------------------------------------------------------------------------
# typed builders

class _NotA(ValueError):
    """A scalar of the wrong type; the message completes "key = 'raw'"."""


def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _NotA("is not a number") from None
    if not np.isfinite(value):
        raise _NotA("is not a finite number")
    return value


def _integer(text: str) -> int:
    value = _number(text)
    if not value.is_integer():
        raise _NotA("is not an integer")
    return int(value)


def _bounds(text: str) -> SaturationBounds:
    return SaturationBounds(matio.parse_vector(text))


def _read(cfg: ExperimentConfig, section: str, key: str, parse=_number):
    """The value of a required key through ``parse``, which every typed read
    uses, so that a bad value is reported with file, section and key."""
    raw = cfg.require(section, key)
    try:
        return parse(raw)
    except ValueError as exc:
        sep = " " if isinstance(exc, _NotA) else ": "
        raise ConfigError(f"{cfg.name}: [{section}] {key} = {raw!r}{sep}{exc}") from None


def build_dither(cfg: ExperimentConfig) -> DitherSpec:
    amps = _read(cfg, "dither", "amplitudes", matio.parse_vector)
    mults = _read(cfg, "dither", "multipliers", matio.parse_fractions)
    return DitherSpec(amps, tuple(mults), _read(cfg, "dither", "base_omega"))


def build_polytope(cfg: ExperimentConfig) -> Optional[HessianPolytope]:
    kind = cfg.get("map", "polytope")
    if kind is None:
        return None
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
    return evaluate(poly, _read(cfg, "map", "alpha", matio.parse_vector))


def build_theta_star(cfg: ExperimentConfig) -> np.ndarray:
    """[map] theta_star, the map's optimizer."""
    return _read(cfg, "map", "theta_star", matio.parse_vector)


def build_qmap(cfg: ExperimentConfig, hessian: np.ndarray) -> QuadraticMap:
    """The simulated map with the given (``resolve_hessian``) curvature."""
    has_bounds = cfg.get("map", "input_bounds") is not None
    return QuadraticMap(
        q_star=_read(cfg, "map", "q_star"),
        theta_star=build_theta_star(cfg),
        hessian=0.5 * (hessian + hessian.T),
        input_bounds=_read(cfg, "map", "input_bounds", _bounds) if has_bounds else None,
    )


@dataclass(frozen=True)
class SynthesisRequest:
    kind: str                      # aw | gradsat
    eta: float
    epsilon: Optional[float]
    bounds: SaturationBounds


def build_synthesis_request(cfg: ExperimentConfig) -> SynthesisRequest:
    if not cfg.has_section("synthesis"):
        raise ConfigError(f"{cfg.name}: missing [synthesis] section")
    kind = cfg.require("synthesis", "kind")
    if kind not in ("aw", "gradsat"):
        raise ConfigError(f"{cfg.name}: unknown synthesis kind {kind!r}")
    has_eps = cfg.get("synthesis", "epsilon") is not None
    return SynthesisRequest(
        kind=kind,
        eta=_read(cfg, "synthesis", "eta"),
        epsilon=_read(cfg, "synthesis", "epsilon") if has_eps else None,
        bounds=_read(cfg, "synthesis", "bounds", _bounds),
    )


def _scenario(cfg: ExperimentConfig) -> str:
    scenario = cfg.require("sim", "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"{cfg.name}: unknown scenario {scenario!r}")
    return scenario


def build_controller(cfg: ExperimentConfig, qmap: QuadraticMap, design=None):
    """Controller from explicit config matrices or, with source = designed,
    from a loaded design, which is required then and refused otherwise."""
    source = cfg.get("controller", "source", "explicit")
    scenario = _scenario(cfg)
    kind = SCENARIOS[scenario][0]
    if source not in ("designed", "explicit"):
        raise ConfigError(f"{cfg.name}: unknown controller source {source!r}")
    if (source == "designed") != (design is not None):
        supplied = "no" if design is None else "a"
        raise ConfigError(
            f"{cfg.name}: controller source is {source!r} but {supplied} design "
            "file was supplied"
        )
    if design is not None and design.kind != kind:
        raise ConfigError(
            f"{cfg.name}: scenario {scenario!r} cannot run a design of kind "
            f"{design.kind!r}"
        )
    if kind == "aw" and qmap.input_bounds is None:
        raise ConfigError(f"{cfg.name}: [map] input_bounds required")
    if design is not None:
        if kind == "aw":
            return AwController(design.k, design.k_aw, qmap.input_bounds)
        return GradSatController(design.k, design.bounds)
    k = _read(cfg, "controller", "k", matio.parse_matrix)
    if kind == "aw":
        k_aw = _read(cfg, "controller", "k_aw", matio.parse_matrix)
        return AwController(k, k_aw, qmap.input_bounds)
    return GradSatController(k, build_synthesis_request(cfg).bounds)


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
    return SimConfig(
        scenario=scenario,
        qmap=qmap,
        dither=dither,
        controller=controller,
        theta0=_read(cfg, "sim", "theta0", matio.parse_vector),
        t_end=_read(cfg, "sim", "t_end"),
        dt=dt,
        demod_remove_offset=(demod == "deviation"),
    )


def build_stride(cfg: ExperimentConfig) -> int:
    """[outputs] stride, the CSV row step; 1 when absent."""
    if cfg.get("outputs", "stride") is None:
        return 1
    return _read(cfg, "outputs", "stride", _integer)
