"""Configuration schema, defaults, validation, and JSON round-trip.

Validation happens before any compute: the type of every field and every
downstream structural constraint (head divisibility, band counts, patch
divisibility, horizon bounds) is checked here and reported with the
offending key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .data import GenConfig
from .freq import next_pow2
from .losses import LossWeights


class ConfigError(ValueError):
    """A configuration value violates a downstream invariant."""


def _like(value, example) -> bool:
    """Whether `value` is typed like `example`; a bool is never an int or a float."""
    if isinstance(example, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(example)
                and all(map(_like, value, example)))
    kinds = (int,) if isinstance(example, int) else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_types(section: str, obj) -> None:
    """Raise ConfigError naming `section.key` for a value not typed like its default."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is None:                   # granularities: [window, stride] int pairs
            ok = value is None or (isinstance(value, (list, tuple))
                                   and all(_like(pair, (0, 0)) for pair in value))
        else:
            ok = _like(value, f.default)
        if not ok:
            raise ConfigError(f"{section}.{f.name}: {value!r} is not of type {f.type}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class ModelConfig:
    channels: int = 32            # node width C
    d_patch: int = 32             # patch hidden size
    n_heads: int = 4
    n_modes: int = 5              # candidate futures per target
    refine_rounds: int = 2
    n_experts: int = 4            # frequency bands
    t_history: int = 8
    t_future: int = 12
    patch_len: int = 4            # trajectory patch length for the patch loss
    granularities: list[list[int]] | None = None   # [window, stride] pairs

    def resolved_granularities(self) -> list[tuple[int, int]]:
        """Explicit pairs, or windows {2, 4, T} with stride window/2 (T uses T)."""
        if self.granularities is not None:
            return [(int(w), int(s)) for w, s in self.granularities]
        out = []
        for w in (2, 4):
            if w < self.t_history:
                out.append((w, max(1, w // 2)))
        out.append((self.t_history, self.t_history))
        return out


@dataclass
class TrainingConfig:
    steps: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 8
    seed: int = 0
    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 0.5

    def loss_weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, beta=self.beta, gamma=self.gamma)


@dataclass
class DataConfig:
    scenario_path: str | None = None
    synthetic: GenConfig | None = field(default_factory=GenConfig)


@dataclass
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self) -> None:
        m, t = self.model, self.training
        _check_types("model", m)
        _check_types("training", t)
        if self.data.synthetic is not None:
            _check_types("data.synthetic", self.data.synthetic)
        if m.t_history < 2:
            raise ConfigError("model.t_history: must be >= 2")
        if m.t_future < 1:
            raise ConfigError("model.t_future: must be >= 1")
        for key in ("channels", "d_patch", "n_heads", "n_modes", "refine_rounds",
                    "n_experts", "patch_len"):
            if getattr(m, key) < 1:
                raise ConfigError(f"model.{key}: must be positive")
        if m.channels % m.n_heads:
            raise ConfigError(f"model.channels: {m.channels} not divisible by "
                              f"n_heads={m.n_heads}")
        if m.d_patch % m.n_heads:
            raise ConfigError(f"model.d_patch: {m.d_patch} not divisible by "
                              f"n_heads={m.n_heads}")
        n_bins = next_pow2(max(m.t_history, 2)) // 2 + 1
        if m.n_experts > n_bins:
            raise ConfigError(f"model.n_experts: {m.n_experts} exceeds the "
                              f"{n_bins} frequency bins of t_history={m.t_history}")
        for w, s in m.resolved_granularities():
            if not 1 <= w <= m.t_history:
                raise ConfigError(f"model.granularities: window {w} outside "
                                  f"[1, {m.t_history}]")
            if s < 1:
                raise ConfigError(f"model.granularities: stride {s} must be >= 1")
        if m.t_future % m.patch_len:
            raise ConfigError(f"model.patch_len: {m.patch_len} does not divide "
                              f"t_future={m.t_future}")
        if t.steps < 0:
            raise ConfigError("training.steps: must be >= 0")
        if t.learning_rate <= 0:
            raise ConfigError("training.learning_rate: must be positive")
        if t.batch_size < 1:
            raise ConfigError("training.batch_size: must be >= 1")
        try:
            t.loss_weights().validate()
        except ValueError as exc:
            raise ConfigError(f"training loss weights: {exc}") from None
        if self.data.scenario_path is None and self.data.synthetic is None:
            raise ConfigError("data: either scenario_path or synthetic must be set")
        if self.data.synthetic is not None:
            try:
                self.data.synthetic.validate()
            except ValueError as exc:
                raise ConfigError(f"data.synthetic: {exc}") from None
            if self.data.scenario_path is None:
                if self.data.synthetic.t_history != m.t_history:
                    raise ConfigError("data.synthetic.t_history: must equal "
                                      "model.t_history")
                if self.data.synthetic.t_future != m.t_future:
                    raise ConfigError("data.synthetic.t_future: must equal "
                                      "model.t_future")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Config":
        _object(d, "config")
        model = ModelConfig(**_object(d.get("model", {}), "model"))
        training = TrainingConfig(**_object(d.get("training", {}), "training"))
        data_d = dict(_object(d.get("data", {}), "data"))
        syn = data_d.get("synthetic")
        if syn is not None:                     # GenConfig's list-like fields are tuples
            syn = _object(syn, "data.synthetic")
            data_d["synthetic"] = GenConfig(**{k: tuple(v) if isinstance(v, list) else v
                                               for k, v in syn.items()})
        data = DataConfig(**data_d)
        return Config(model=model, training=training, data=data)


def load_config(path: str) -> Config:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    try:
        cfg = Config.from_dict(doc)
    except TypeError as exc:
        raise ConfigError(f"{path}: unknown or missing config key ({exc})") from None
    cfg.validate()
    return cfg


def save_config(path: str, config: Config) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
