"""Run configuration for the command-line tool.

The format is INI-style: ``[section]`` headers and ``key = value`` lines,
with ``#`` or ``;`` comment lines.  Sections are ``[data]``, ``[estimand]``,
``[learners]``, and ``[run]``.  Parsing is strict: unknown sections or keys,
duplicate keys, and malformed values are each rejected with the offending
line number, so a typo never silently falls back to a default.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

from .distributions import KINDS, ROLES
from .errors import ConfigError, ValidationError
from .estimands import _AS_GIVEN, _COERCE, CATALOG, Estimand, _parameter
from .estimation import DEFAULT_ALPHA, DEFAULT_FOLDS, ESTIMATORS, LearnerSettings

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

_DATA_TYPES = {"path": "str", "dgp": "str", "n": "int"}


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
        if self.method not in ESTIMATORS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {sorted(ESTIMATORS)}"
            )
        if self.folds < 1:
            raise ConfigError(f"folds must be at least 1, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be inside (0, 1), got {self.alpha}")

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
            "run": {key: getattr(self, key) for key in _RUN_TYPES},
        }


# Each [learners] and [run] key is the RunConfig or LearnerSettings field
# that holds it, read as that field's annotation declares.
_LEARNER_TYPES = {f.name: f.type for f in fields(LearnerSettings)}
_RUN_TYPES = {
    f.name: f.type for f in fields(RunConfig)
    if f.name in ("method", "folds", "seed", "alpha", "out")
}


def resolve_method(name: str) -> str:
    """The estimator a method name or one of its aliases selects."""
    if name not in METHOD_ALIASES:
        raise ConfigError(
            f"unknown method {name!r}; expected one of {sorted(METHOD_ALIASES)}"
        )
    return METHOD_ALIASES[name]


def _read(types: dict, section: str, key: str, raw: str, lineno: int):
    """The value of line ``lineno``, ``key = raw`` in ``[section]``, read as
    the type ``types`` declares for its key."""
    if key not in types:
        raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
    coerce, expected = _COERCE.get(types[key], _AS_GIVEN)
    try:
        return coerce(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"line {lineno}: {key} must be {expected}, got {raw!r}") from None


def _at_line(lineno: int, check: Callable, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ``ValidationError`` it raises
    about the value of line ``lineno`` named by that line."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


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
    data: dict = {}
    roles: dict = {}
    for key, (value, lineno) in entries.items():
        if not key.startswith("role."):
            data[key] = _read(_DATA_TYPES, "data", key, value, lineno)
            if key == "n" and data[key] < 1:
                raise ConfigError(f"line {lineno}: n must be at least 1, got {data[key]}")
            continue
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
    return data.get("path"), data.get("dgp"), data.get("n"), roles


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Every error names the offending line; validation that spans lines (a
    missing required key, say) names the section instead.  A [learners] or
    [run] key left out keeps the default its field declares.
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
    est_name, est_line = est_entries.pop("name")
    if est_name not in CATALOG:
        raise ConfigError(
            f"line {est_line}: unknown estimand {est_name!r}; "
            f"available: {', '.join(sorted(CATALOG))}"
        )
    for required in CATALOG[est_name].required_params:
        if required not in est_entries:
            raise ConfigError(
                f"[estimand] {est_name} requires the key {required!r}"
            )
    cls, params = CATALOG[est_name], {}
    for key, (value, lineno) in est_entries.items():
        params[key] = _at_line(lineno, _parameter, cls, key, value)
    try:
        spec = cls(**params)
    except ValidationError as exc:
        # a range check on one given value names its line; on several, the section
        where = f"line {lineno}" if len(params) == 1 else "[estimand]"
        raise ConfigError(f"{where}: {exc}") from None
    # Estimands outside the tractable class reject at lookup time; surface
    # that here so a bad target never reaches data loading.
    spec.nuisance_requirements()

    # every [learners] check is of one key, so each key is checked alone, at its line
    learners = {}
    for key, (value, lineno) in sections["learners"].items():
        learners[key] = _read(_LEARNER_TYPES, "learners", key, value, lineno)
        _at_line(lineno, LearnerSettings, **{key: learners[key]})
    settings = LearnerSettings(**learners)

    # likewise each [run] key, once a method alias is resolved to its estimator
    run = {}
    for key, (value, lineno) in sections["run"].items():
        run[key] = _read(_RUN_TYPES, "run", key, value, lineno)
        if key == "method":
            run[key] = _at_line(lineno, resolve_method, run[key])
        _at_line(lineno, RunConfig, spec, settings, roles, **{key: run[key]})

    return RunConfig(
        spec=spec, settings=settings, roles=roles, data_path=path, dgp_name=dgp, n=n, **run
    )


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
