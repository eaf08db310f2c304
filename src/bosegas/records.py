"""Experiment configuration files and persisted result records.

Config files are INI-style with fixed sections and a closed key set; records
are JSON objects with an embedded schema version.  A record keeps what its
estimate reported: the count, the value and the batch-means error, each once,
never a raw sample stream.  Multi-chain results are pooled from those three
numbers per component, so merging is associative and independent of
completion order.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .hsfield import wick_rho
from .lattice import ModelParams, TimeGrid, TorusGeometry
from .stats import ComplexEstimate

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRecord",
    "record_from_estimate",
    "merge_chains",
]

SCHEMA_VERSION = 2

# per-record extra fields fixed by the shared parameters, so merge_chains
# carries them into the pooled record; every other extra stays per chain
POOLED_EXTRAS = ("contour_shift",)


class ConfigError(Exception):
    """Malformed or invalid experiment configuration."""


DEFAULTS = {
    "geometry": {"mode": "lattice", "dimension": "1", "sites_per_side": "1",
                 "circumference": "0"},
    "model": {"nu": "1.0", "kappa0": "1.0", "lambda0": "0.0",
              "n_species": "1.0", "coupling_mode": "fixed",
              "rho_mode": "explicit", "rho": "0.0"},
    "grid": {"n_tau": "32"},
    "mc": {"samples": "10000", "seed": "0", "chains": "1"},
    "truncations": {"n_max": "30", "l_max": "30"},
    "potential": {"kind": "delta", "strength": "1.0", "width": "0.5"},
    "limit": {"kind": "classical", "nu_list": "0.4,0.2,0.1,0.05",
              "n_list": "4,16,64", "z": "0.5"},
}

ALLOWED_KEYS = {sec: set(vals) for sec, vals in DEFAULTS.items()}


@dataclass
class ExperimentConfig:
    """Fully resolved, validated experiment parameters."""

    raw: dict

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except (configparser.Error, OSError) as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        return cls.from_parser(parser)

    @classmethod
    def from_parser(cls, parser) -> "ExperimentConfig":
        raw = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
        for sec in parser.sections():
            if sec not in ALLOWED_KEYS:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, val in parser.items(sec):
                if key not in ALLOWED_KEYS[sec]:
                    raise ConfigError(f"unknown key '{key}' in section [{sec}]")
                raw[sec][key] = val
        return cls(raw=raw)

    @classmethod
    def defaults(cls) -> "ExperimentConfig":
        return cls(raw={sec: dict(vals) for sec, vals in DEFAULTS.items()})

    def override(self, section: str, key: str, value) -> None:
        if key not in ALLOWED_KEYS[section]:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        self.raw[section][key] = str(value)

    # typed accessors ------------------------------------------------------

    def _get(self, section, key, cast):
        try:
            return cast(self.raw[section][key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: "
                              f"{self.raw[section][key]!r}") from exc

    def geometry(self) -> TorusGeometry:
        mode = self.raw["geometry"]["mode"]
        try:
            if mode == "circle":
                return TorusGeometry(dimension=1, mode="circle",
                                     circumference=self._get("geometry", "circumference", float))
            return TorusGeometry(dimension=self._get("geometry", "dimension", int),
                                 sites_per_side=self._get("geometry", "sites_per_side", int))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def model(self) -> ModelParams:
        """The model at this point; rho_mode = wick sets rho to the Wick density."""
        rho_mode = self.raw["model"]["rho_mode"]
        if rho_mode not in ("explicit", "wick"):
            raise ConfigError(f"rho_mode must be 'explicit' or 'wick', not {rho_mode!r}")
        try:
            params = ModelParams(
                nu=self._get("model", "nu", float),
                kappa0=self._get("model", "kappa0", float),
                lambda0=self._get("model", "lambda0", float),
                n_species=self._get("model", "n_species", float),
                coupling_mode=self.raw["model"]["coupling_mode"],
                rho=self._get("model", "rho", float),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if rho_mode == "explicit":
            return params
        geom = self.geometry()
        if geom.mode != "lattice":
            raise ConfigError("rho_mode = wick needs a lattice geometry")
        return replace(params, rho=wick_rho(geom, params.nu, params.kappa0))

    def grid(self) -> TimeGrid:
        return TimeGrid(nu=self._get("model", "nu", float),
                        n_slices=self._get("grid", "n_tau", int))

    def potential(self, geom: TorusGeometry):
        from .lattice import (CirclePotential, delta_potential,
                              wrapped_gaussian_potential)

        kind = self.raw["potential"]["kind"]
        strength = self._get("potential", "strength", float)
        width = self._get("potential", "width", float)
        if geom.mode == "circle":
            return CirclePotential(geom.circumference, strength=strength,
                                   width=width)
        if kind == "delta":
            return delta_potential(geom, strength)
        if kind == "gaussian":
            return wrapped_gaussian_potential(geom, strength, width)
        raise ConfigError(f"unknown potential kind {kind!r}")

    def mc(self) -> dict:
        mc = {key: self._get("mc", key, int) for key in ("samples", "seed", "chains")}
        for key in ("samples", "chains"):
            if mc[key] < 1:
                raise ConfigError(f"mc.{key} must be at least 1, not {mc[key]}")
        return mc

    def truncations(self) -> dict:
        trunc = {key: self._get("truncations", key, int) for key in ("n_max", "l_max")}
        for key, val in trunc.items():
            if val < 1:
                raise ConfigError(f"truncations.{key} must be at least 1, not {val}")
        return trunc

    def float_list(self, section, key):
        return [float(tok) for tok in self.raw[section][key].split(",") if tok]


@dataclass
class ExperimentRecord:
    """One persisted estimate with enough statistics to merge later."""

    command: str
    parameters: dict
    estimate_re: float
    estimate_im: float
    stderr_re: float
    stderr_im: float
    n_samples: int
    ess: float
    seed: int
    unreliable: bool
    wall_seconds: float
    extra: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRecord":
        """The record of one JSON line; a schema-1 line's `moments` copy is dropped."""
        data = json.loads(text)
        data.pop("moments", None)
        return cls(**data)


def record_from_estimate(command: str, parameters: dict, est: ComplexEstimate,
                         wall_seconds: float) -> ExperimentRecord:
    """The record of one estimate: its count, value and batch-means errors."""
    extra = {k: v for k, v in est.extra.items()
             if isinstance(v, (int, float, bool, str))}
    return ExperimentRecord(
        command=command,
        parameters=parameters,
        estimate_re=float(est.value.real),
        estimate_im=float(est.value.imag),
        stderr_re=est.stderr_re,
        stderr_im=est.stderr_im,
        n_samples=est.n_samples,
        ess=float(est.ess),
        seed=est.seed if est.seed is not None else 0,
        unreliable=bool(est.unreliable),
        wall_seconds=wall_seconds,
        extra=extra,
    )


class MergeError(Exception):
    pass


def merge_chains(*recs: ExperimentRecord) -> ExperimentRecord:
    """Pool per-chain records from their counts, values and batch-means errors.

    Per component, chain i with count n_i, value m_i and error s_i holds
    M2_i = s_i^2 n_i (n_i - 1).  The pooled count, value and error are
    N = sum n_i, m = sum n_i m_i / N and
    s^2 = (sum M2_i + sum n_i (m_i - m)^2) / (N (N - 1)),
    the count/mean/M2 pooling of Chan, Golub and LeVeque (Am. Stat. 37, 242
    (1983)).  A pooled record pools again the same way, so merging is
    associative to rounding and independent of order.

    Records must share resolved parameters and carry distinct seeds.
    """
    if not recs:
        raise MergeError("nothing to merge")
    base = recs[0]
    seeds = set()
    for r in recs:
        if r.parameters != base.parameters or r.command != base.command:
            raise MergeError("cannot merge records with different parameters")
        if r.seed in seeds:
            raise MergeError(f"duplicate chain seed {r.seed}")
        seeds.add(r.seed)
    # one row per chain, one column per component (re, im)
    n = np.array([[r.n_samples] for r in recs], dtype=float)
    values = np.array([[r.estimate_re, r.estimate_im] for r in recs])
    errors = np.array([[r.stderr_re, r.stderr_im] for r in recs])
    total = n.sum()
    mean = (n * values).sum(axis=0) / total
    m2 = (errors**2 * n * (n - 1) + n * (values - mean)**2).sum(axis=0)
    stderr = np.sqrt(m2 / (total * (total - 1)))
    return ExperimentRecord(
        command=base.command,
        parameters=base.parameters,
        estimate_re=float(mean[0]),
        estimate_im=float(mean[1]),
        stderr_re=float(stderr[0]),
        stderr_im=float(stderr[1]),
        n_samples=int(total),
        ess=float(sum(r.ess for r in recs)),
        seed=min(seeds),
        unreliable=any(r.unreliable for r in recs),
        wall_seconds=float(sum(r.wall_seconds for r in recs)),
        extra={**{k: base.extra[k] for k in POOLED_EXTRAS if k in base.extra},
               "merged_chains": len(recs)},
    )
