"""Run configuration for the command-line tool.

The format is INI-style: ``[section]`` headers and ``key = value`` lines,
with ``#`` or ``;`` comment lines.  Sections are ``[data]``, ``[estimand]``,
``[learners]``, and ``[run]``.  Parsing is strict: unknown sections or keys,
duplicate keys, and malformed values are each rejected with the offending
line number, so a typo never silently falls back to a default.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .distributions import KINDS, ROLES
from .errors import ConfigError
from .estimands import CATALOG, Estimand, from_config
from .estimation import (
    DEFAULT_ALPHA,
    DEFAULT_FOLDS,
    ESTIMATORS,
    LearnerSettings,
)

SECTIONS = ("data", "estimand", "learners", "run")

METHOD_ALIASES = {
    "plugin": "plugin",
    "one-step": "one_step",
    "one_step": "one_step",
    "ee": "estimating_equation",
    "estimating-equation": "estimating_equation",
    "estimating_equation": "estimating_equation",
    "tmle": "tmle",
}

_LEARNER_KEYS = {
    "outcome_model": str,
    "outcome_degree": int,
    "outcome_interactions": bool,
    "propensity_model": str,
    "propensity_degree": int,
    "propensity_interactions": bool,
    "ridge_lambda": float,
    "bandwidth": "bandwidth",
    "trim": float,
}

_RUN_KEYS = {
    "method": str,
    "folds": int,
    "seed": int,
    "alpha": float,
    "out": str,
}

_DATA_KEYS = {
    "path": str,
    "dgp": str,
    "n": int,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration with every default made explicit."""

    spec: Estimand
    settings: LearnerSettings
    roles: dict
    data_path: Optional[str] = None
    dgp_name: Optional[str] = None
    n: Optional[int] = None
    method: str = "one_step"
    folds: int = DEFAULT_FOLDS
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def resolved(self) -> dict:
        """Echo of the full configuration, defaults included, for embedding
        in every output so a run can be reproduced from its report alone."""
        data: dict = {}
        if self.data_path is not None:
            data["path"] = self.data_path
        if self.dgp_name is not None:
            data["dgp"] = self.dgp_name
            data["n"] = self.n
        if self.roles:
            data["roles"] = {name: list(pair) for name, pair in self.roles.items()}
        return {
            "data": data,
            "estimand": self.spec.describe(),
            "learners": self.settings.to_json(),
            "run": {
                "method": self.method,
                "folds": self.folds,
                "seed": self.seed,
                "alpha": self.alpha,
                "out": self.out,
            },
        }


def _coerce(kind, raw: str, key: str, lineno: int):
    if kind is str:
        return raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be an integer, got {raw!r}") from None
    if kind is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} must be a number, got {raw!r}") from None
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"line {lineno}: {key} must be true or false, got {raw!r}")
    if kind == "bandwidth":
        if raw == "auto":
            return "auto"
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bandwidth must be 'auto' or a number, got {raw!r}"
            ) from None
    raise AssertionError(f"unhandled coercion kind {kind!r}")


def _scan(text: str) -> dict:
    """Split raw text into per-section {key: (value, lineno)} maps."""
    sections: dict = {name: {} for name in SECTIONS}
    current: Optional[str] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in SECTIONS)
                )
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} in [{current}] "
                f"(first set on line {sections[current][key][1]})"
            )
        sections[current][key] = (value, lineno)
    return sections


def _parse_data(entries: dict) -> tuple:
    path = dgp = None
    n = None
    roles: dict = {}
    for key, (value, lineno) in entries.items():
        if key.startswith("role."):
            column = key[len("role."):]
            if not column:
                raise ConfigError(f"line {lineno}: role key needs a column name")
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ConfigError(
                    f"line {lineno}: role.{column} must be '<role>,<kind>', got {value!r}"
                )
            role, kind = parts
            if role not in ROLES:
                raise ConfigError(
                    f"line {lineno}: unknown role {role!r}; expected one of {ROLES}"
                )
            if kind not in KINDS:
                raise ConfigError(
                    f"line {lineno}: unknown kind {kind!r}; expected one of {KINDS}"
                )
            roles[column] = (role, kind)
        elif key in _DATA_KEYS:
            value = _coerce(_DATA_KEYS[key], value, key, lineno)
            if key == "path":
                path = value
            elif key == "dgp":
                dgp = value
            elif value < 1:
                raise ConfigError(f"line {lineno}: n must be at least 1, got {value}")
            else:
                n = value
        else:
            raise ConfigError(f"line {_lineno(entries, key)}: unknown key {key!r} in [data]")
    return path, dgp, n, roles


def _lineno(entries: dict, key: str) -> int:
    return entries[key][1]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Every error names the offending line; validation that spans lines (a
    missing required key, say) names the section instead.
    """
    sections = _scan(text)

    path, dgp, n, roles = _parse_data(sections["data"])
    if path is not None and dgp is not None:
        raise ConfigError("[data] must set either path or dgp, not both")
    if path is None and dgp is None:
        raise ConfigError("[data] must set a csv path or a dgp name")
    if path is not None and not roles:
        raise ConfigError("[data] with a csv path needs role.<column> entries")
    if dgp is not None and n is None:
        raise ConfigError("[data] with a dgp needs n, the sample size to draw")
    if dgp is not None and roles:
        raise ConfigError("[data] roles come from the dgp; remove role.* entries")
    if path is not None and n is not None:
        raise ConfigError("[data] n only applies when drawing from a dgp")

    est_entries = sections["estimand"]
    if "name" not in est_entries:
        raise ConfigError("[estimand] is missing the required key 'name'")
    est_name = est_entries["name"][0]
    if est_name not in CATALOG:
        raise ConfigError(
            f"line {_lineno(est_entries, 'name')}: unknown estimand {est_name!r}; "
            f"available: {', '.join(sorted(CATALOG))}"
        )
    for required in CATALOG[est_name].required_params:
        if required not in est_entries:
            raise ConfigError(
                f"[estimand] {est_name} requires the key {required!r}"
            )
    params = {}
    for key, (value, _) in est_entries.items():
        if key == "name":
            continue
        if key == "weight_coefficients":
            params[key] = [part.strip() for part in value.split(",")]
        else:
            params[key] = value
    spec = from_config(est_name, params)
    # Estimands outside the tractable class reject at lookup time; surface
    # that here so a bad target never reaches data loading.
    spec.nuisance_requirements()

    learner_kwargs = {}
    for key, (value, lineno) in sections["learners"].items():
        if key not in _LEARNER_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [learners]")
        learner_kwargs[key] = _coerce(_LEARNER_KEYS[key], value, key, lineno)
    settings = LearnerSettings(**learner_kwargs)

    run_values = {}
    for key, (value, lineno) in sections["run"].items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [run]")
        run_values[key] = _coerce(_RUN_KEYS[key], value, key, lineno)
    method = run_values.get("method", "one_step")
    if method not in METHOD_ALIASES:
        raise ConfigError(
            f"line {_lineno(sections['run'], 'method')}: unknown method {method!r}; "
            f"expected one of {sorted(set(METHOD_ALIASES))}"
        )
    method = METHOD_ALIASES[method]
    assert method in ESTIMATORS
    folds = run_values.get("folds", DEFAULT_FOLDS)
    if folds < 1:
        raise ConfigError(
            f"line {_lineno(sections['run'], 'folds')}: folds must be at least 1"
        )
    alpha = run_values.get("alpha", DEFAULT_ALPHA)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(
            f"line {_lineno(sections['run'], 'alpha')}: alpha must be inside (0, 1)"
        )

    return RunConfig(
        spec=spec,
        settings=settings,
        roles=roles,
        data_path=path,
        dgp_name=dgp,
        n=n,
        method=method,
        folds=folds,
        seed=run_values.get("seed", 0),
        alpha=alpha,
        out=run_values.get("out"),
    )


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
