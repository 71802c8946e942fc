"""Pipeline configuration: defaults, file/flag merging, validation."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .augment import DEFAULT_ALPHA, DEFAULT_ERR_TARGET, Z_95
from .consensus import DEFAULT_BETA, DEFAULT_PAIR_CAP
from .errors import GadError


@dataclass
class Config:
    """All knobs of the partition / augment / train pipeline."""

    edges: str | None = None
    features: str | None = None
    data_dir: str | None = None
    split: tuple[float, float, float] = (0.45, 0.18, 0.37)

    k: int = 4
    epsilon: float = 0.1
    restarts: int = 8
    target_fraction: float = 0.2

    layers: int = 3
    hidden: int = 128
    eta: float = 1e-4
    epochs: int = 400
    eval_every: int = 1

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    z_c: float = Z_95
    err_target: float = DEFAULT_ERR_TARGET
    importance_mode: str = "indicator"
    augment: bool = True

    weighted: bool = True
    workers: int = 4
    seed: int = 0
    pair_cap: int = DEFAULT_PAIR_CAP

    def validate(self) -> "Config":
        if self.k < 1:
            raise GadError("k must be >= 1")
        if self.epsilon < 0:
            raise GadError("epsilon must be >= 0")
        if self.restarts < 1:
            raise GadError("restarts must be >= 1")
        if not 0.0 < self.target_fraction < 1.0:
            raise GadError("target_fraction must be in (0, 1)")
        if self.layers < 1:
            raise GadError("layers must be >= 1")
        if self.hidden < 1:
            raise GadError("hidden must be >= 1")
        if self.eta <= 0:
            raise GadError("eta must be positive")
        if self.epochs < 0:
            raise GadError("epochs must be >= 0")
        if self.eval_every < 1:
            raise GadError("eval_every must be >= 1")
        if self.alpha <= 0:
            raise GadError("alpha must be positive")
        if self.beta <= 0:
            raise GadError("beta must be positive")
        if not 0.0 < self.err_target < 1.0:
            raise GadError("err_target must be in (0, 1)")
        if self.z_c <= 0:
            raise GadError("z_c must be positive")
        if self.workers < 1:
            raise GadError("workers must be >= 1")
        if self.seed < 0:
            raise GadError("seed must be >= 0")
        if self.pair_cap < 2:
            raise GadError("pair_cap must be >= 2")
        if len(self.split) != 3 or any(s < 0 for s in self.split) or sum(self.split) > 1 + 1e-9:
            raise GadError("split fractions must be nonnegative and sum to <= 1")
        if self.importance_mode != "indicator":
            raise GadError("importance_mode must be 'indicator'")
        return self

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["split"] = list(self.split)
        return d

    @classmethod
    def from_sources(cls, file_dict: dict | None = None, overrides: dict | None = None) -> "Config":
        """Merge defaults < config file < explicit overrides, then validate.

        None leaves a key unset; other values must fit the field (:func:`_fits`).
        """
        defaults = {f.name: f.default for f in fields(cls)}
        merged: dict = {}
        for src in (file_dict or {}), (overrides or {}):
            for key, val in src.items():
                if key not in defaults:
                    raise GadError(f"unknown config key {key!r}")
                if val is None:
                    continue
                if not _fits(val, defaults[key]):
                    raise GadError(f"config key {key!r} has the wrong type: {val!r}")
                merged[key] = val
        if "split" in merged:
            merged["split"] = tuple(float(x) for x in merged["split"])
        return cls(**merged).validate()


def _fits(value, default) -> bool:
    """Whether ``value`` has the type of a field whose default is ``default``:
    bool, int (not bool), float (int allowed), str for the paths (default
    None), and as many numbers as the default holds for ``split``."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and len(value) == len(default) and all(
            _fits(v, 0.0) for v in value
        )
    kind = {float: (int, float), type(None): str}.get(type(default), type(default))
    return isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)
