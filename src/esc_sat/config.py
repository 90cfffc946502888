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
    "serialize_config",
    "build_dither",
    "build_polytope",
    "polytope_to_entries",
    "resolve_hessian",
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


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back yields an equivalent config."""
    chunks = []
    for sec, entries in cfg.sections.items():
        lines = [f"[{sec}]"]
        lines += [f"{key} = {value}" for key, value in entries.items()]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# typed builders

def _float(cfg: ExperimentConfig, section: str, key: str) -> float:
    raw = cfg.require(section, key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{cfg.name}: [{section}] {key} = {raw!r} is not a number")


def _int(cfg: ExperimentConfig, section: str, key: str) -> int:
    value = _float(cfg, section, key)
    if not value.is_integer():
        raw = cfg.require(section, key)
        raise ConfigError(f"{cfg.name}: [{section}] {key} = {raw!r} is not an integer")
    return int(value)


def build_dither(cfg: ExperimentConfig) -> DitherSpec:
    amps = matio.parse_vector(cfg.require("dither", "amplitudes"))
    mults = matio.parse_fractions(cfg.require("dither", "multipliers"))
    base = _float(cfg, "dither", "base_omega")
    return DitherSpec(amps, tuple(mults), base)


def build_polytope(cfg: ExperimentConfig) -> Optional[HessianPolytope]:
    kind = cfg.get("map", "polytope")
    if kind is None:
        return None
    if kind == "scaled_nominal":
        h0 = matio.parse_matrix(cfg.require("map", "h0"))
        return from_scaled_nominal(h0, _float(cfg, "map", "delta_bar"))
    if kind == "eigen_interval":
        return from_eigen_interval(
            _float(cfg, "map", "lambda1"),
            _float(cfg, "map", "lambda2"),
            _int(cfg, "map", "dim"),
        )
    if kind == "affine":
        gamma0 = matio.parse_matrix(cfg.require("map", "gamma0"))
        bars = matio.parse_vector(cfg.require("map", "delta_bars"))
        gammas = []
        for i in range(1, bars.size + 1):
            gammas.append(matio.parse_matrix(cfg.require("map", f"gamma{i}")))
        return from_affine(gamma0, gammas, bars.tolist())
    if kind == "vertices":
        verts = []
        i = 1
        while cfg.get("map", f"vertex{i}") is not None:
            verts.append(matio.parse_matrix(cfg.require("map", f"vertex{i}")))
            i += 1
        if not verts:
            raise ConfigError(f"{cfg.name}: polytope kind 'vertices' lists none")
        return HessianPolytope(tuple(verts))
    raise ConfigError(f"{cfg.name}: unknown polytope kind {kind!r}")


def polytope_to_entries(poly: HessianPolytope) -> dict[str, str]:
    """[map] entries reproducing the polytope via the explicit vertex form."""
    entries = {"polytope": "vertices"}
    for i, v in enumerate(poly.vertices, start=1):
        entries[f"vertex{i}"] = matio.format_matrix(v)
    return entries


def resolve_hessian(cfg: ExperimentConfig, poly: Optional[HessianPolytope]) -> np.ndarray:
    """True curvature for simulation: explicit, or a polytope mix by alpha."""
    raw = cfg.get("map", "hessian")
    if raw is not None:
        return matio.parse_matrix(raw)
    if poly is None:
        raise ConfigError(
            f"{cfg.name}: [map] needs either 'hessian' or a polytope"
        )
    alpha_raw = cfg.get("map", "alpha")
    if alpha_raw is None:
        raise ConfigError(
            f"{cfg.name}: simulating from a polytope needs [map] alpha weights"
        )
    return evaluate(poly, matio.parse_vector(alpha_raw))


def build_qmap(cfg: ExperimentConfig, hessian: Optional[np.ndarray] = None) -> QuadraticMap:
    if hessian is None:
        hessian = resolve_hessian(cfg, build_polytope(cfg))
    hessian = 0.5 * (hessian + hessian.T)
    bounds_raw = cfg.get("map", "input_bounds")
    bounds = (
        SaturationBounds(matio.parse_vector(bounds_raw))
        if bounds_raw is not None
        else None
    )
    return QuadraticMap(
        q_star=_float(cfg, "map", "q_star"),
        theta_star=matio.parse_vector(cfg.require("map", "theta_star")),
        hessian=hessian,
        input_bounds=bounds,
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
        eta=_float(cfg, "synthesis", "eta"),
        epsilon=_float(cfg, "synthesis", "epsilon") if has_eps else None,
        bounds=SaturationBounds(matio.parse_vector(cfg.require("synthesis", "bounds"))),
    )


def _scenario(cfg: ExperimentConfig) -> str:
    scenario = cfg.require("sim", "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"{cfg.name}: unknown scenario {scenario!r}")
    return scenario


def build_controller(cfg: ExperimentConfig, qmap: QuadraticMap, design=None):
    """Controller from explicit config matrices or a loaded design."""
    source = cfg.get("controller", "source", "explicit")
    scenario = _scenario(cfg)
    aw_like = scenario in ("input-saturation", "average-aw")
    if source == "designed":
        if design is None:
            raise ConfigError(
                f"{cfg.name}: controller source is 'designed' but no design "
                "file was supplied"
            )
        if (design.kind == "aw") != aw_like:
            raise ConfigError(
                f"{cfg.name}: scenario {scenario!r} cannot run a design of kind "
                f"{design.kind!r}"
            )
        if design.kind == "aw":
            if qmap.input_bounds is None:
                raise ConfigError(f"{cfg.name}: [map] input_bounds required")
            return AwController(design.k, design.k_aw, qmap.input_bounds)
        return GradSatController(design.k, design.bounds)
    if source != "explicit":
        raise ConfigError(f"{cfg.name}: unknown controller source {source!r}")
    k = matio.parse_matrix(cfg.require("controller", "k"))
    if aw_like:
        if qmap.input_bounds is None:
            raise ConfigError(f"{cfg.name}: [map] input_bounds required")
        k_aw = matio.parse_matrix(cfg.require("controller", "k_aw"))
        return AwController(k, k_aw, qmap.input_bounds)
    req = build_synthesis_request(cfg)
    return GradSatController(k, req.bounds)


def build_sim_config(
    cfg: ExperimentConfig,
    qmap: QuadraticMap,
    dither: DitherSpec,
    controller,
    p_matrix: Optional[np.ndarray] = None,
) -> SimConfig:
    scenario = _scenario(cfg)
    auto_dt = cfg.get("sim", "dt", "auto") == "auto"
    dt = None if auto_dt else _float(cfg, "sim", "dt")
    demod = cfg.get("sim", "demod", "deviation")
    if demod not in ("deviation", "raw"):
        raise ConfigError(f"{cfg.name}: [sim] demod must be deviation or raw")
    return SimConfig(
        scenario=scenario,
        qmap=qmap,
        dither=dither,
        controller=controller,
        theta0=matio.parse_vector(cfg.require("sim", "theta0")),
        t_end=_float(cfg, "sim", "t_end"),
        dt=dt,
        demod_remove_offset=(demod == "deviation"),
        p_matrix=p_matrix,
    )


def build_stride(cfg: ExperimentConfig) -> int:
    """[outputs] stride, the CSV row step; 1 when absent."""
    if cfg.get("outputs", "stride") is None:
        return 1
    return _int(cfg, "outputs", "stride")
