"""Configuration schema, defaults, validation, and JSON round-trip.

Validation happens before any compute. Each field declares its rule next to
its default (`data.rule`): one walk (`data.check_fields`) checks the type of
every field in every section, that each float is finite, and each field's
bound. The cross-field constraints (head divisibility, band counts, window
and patch bounds, horizons) are checked here. Every error names its key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .data import ConfigError, GenConfig, check_fields, rule
from .freq import next_pow2
from .losses import LossWeights


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class ModelConfig:
    channels: int = rule(32, ge=1)            # node width C
    d_patch: int = rule(32, ge=1)             # patch hidden size
    n_heads: int = rule(4, ge=1)
    n_modes: int = rule(5, ge=1)              # candidate futures per target
    refine_rounds: int = rule(2, ge=1)
    n_experts: int = rule(4, ge=1)            # frequency bands
    t_history: int = rule(8, ge=2)
    t_future: int = rule(12, ge=1)
    patch_len: int = rule(4, ge=1)            # trajectory patch length for the patch loss
    granularities: list[list[int]] | None = rule(None, ge=1, like=[(1, 1)])  # [window, stride]

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
    steps: int = rule(500, ge=0)
    learning_rate: float = rule(1e-3, gt=0.0)
    batch_size: int = rule(8, ge=1)
    seed: int = rule(0, ge=0)                 # np.random.default_rng refuses negatives
    alpha: float = rule(1.0, ge=0.0)
    beta: float = rule(0.5, ge=0.0)
    gamma: float = rule(0.5, ge=0.0)

    def loss_weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, beta=self.beta, gamma=self.gamma)


@dataclass
class DataConfig:
    scenario_path: str | None = rule(None, like="path")
    synthetic: GenConfig | None = field(default_factory=GenConfig)


@dataclass
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def validate(self) -> None:
        check_fields(self)                      # every field of every section
        m, syn = self.model, self.data.synthetic
        if m.channels % m.n_heads:
            raise ConfigError(f"model.channels: {m.channels} not divisible by "
                              f"n_heads={m.n_heads}")
        if m.d_patch % m.n_heads:
            raise ConfigError(f"model.d_patch: {m.d_patch} not divisible by "
                              f"n_heads={m.n_heads}")
        n_bins = next_pow2(m.t_history) // 2 + 1
        if m.n_experts > n_bins:
            raise ConfigError(f"model.n_experts: {m.n_experts} exceeds the "
                              f"{n_bins} frequency bins of t_history={m.t_history}")
        for w, _ in m.resolved_granularities():
            if w > m.t_history:
                raise ConfigError(f"model.granularities: window {w} exceeds "
                                  f"t_history={m.t_history}")
        if m.t_future % m.patch_len:
            raise ConfigError(f"model.patch_len: {m.patch_len} does not divide "
                              f"t_future={m.t_future}")
        try:
            self.training.loss_weights().validate()
        except ValueError as exc:
            raise ConfigError(f"training loss weights: {exc}") from None
        if self.data.scenario_path is None and syn is None:
            raise ConfigError("data: either scenario_path or synthetic must be set")
        if syn is not None:
            try:
                syn.validate()
            except ConfigError as exc:
                raise ConfigError(f"data.synthetic.{exc}") from None
            if self.data.scenario_path is None:
                for key in ("t_history", "t_future"):
                    if getattr(syn, key) != getattr(m, key):
                        raise ConfigError(f"data.synthetic.{key}: must equal model.{key}")

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
