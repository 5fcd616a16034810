"""Config parsing and the command-line surface, exercised in subprocesses."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from influence_lab import (
    CATALOG,
    ConfigError,
    NotPathwiseDifferentiableError,
    ValidationError,
    from_config,
    parse_config,
    parse_config_file,
)
from influence_lab.cli import main as cli_main
from influence_lab.config import METHOD_ALIASES, RunConfig
from influence_lab.distributions import KINDS, ROLES
from influence_lab.estimation import (
    DEFAULT_ALPHA,
    _OUTCOME_MODELS,
    _PROPENSITY_MODELS,
    LearnerSettings,
)
from influence_lab.simulation import ARM_SETTINGS, DGPS

MINIMAL = """\
[data]
dgp = normal-mean
n = 120

[estimand]
name = population_mean
"""

FULL = """\
[data]
path = obs.csv
role.y = outcome,continuous
role.x = exposure,binary
role.z = covariate,continuous

[estimand]
name = quantile
tau = 0.25

[learners]
outcome_model = kernel
bandwidth = auto
trim = 0.02

[run]
method = ee
folds = 3
seed = 11
alpha = 0.1
out = run.json
"""


INTEGER_PARAMS = [
    ("potential_outcome_mean", "x"),
    ("interventional_direct_effect", "x1"),
    ("interventional_direct_effect", "x0"),
]


def run_cli(*argv, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "influence_lab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_config_fills_every_default(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dgp_name == "normal-mean"
        assert cfg.n == 120
        assert cfg.data_path is None
        assert cfg.roles == {}
        assert cfg.spec.name == "population_mean"
        assert cfg.method == "one_step"
        assert cfg.folds == 5
        assert cfg.seed == 0
        assert cfg.alpha == 0.05
        assert cfg.out is None

    def test_resolved_echo_contains_defaults(self):
        resolved = parse_config(MINIMAL).resolved()
        assert resolved["data"] == {"dgp": "normal-mean", "n": 120}
        assert resolved["estimand"]["name"] == "population_mean"
        assert resolved["run"] == {
            "method": "one_step",
            "folds": 5,
            "seed": 0,
            "alpha": 0.05,
            "out": None,
        }
        assert resolved["learners"]["trim"] == 0.01

    def test_full_config_round_trip(self):
        cfg = parse_config(FULL)
        assert cfg.data_path == "obs.csv"
        assert cfg.roles == {
            "y": ("outcome", "continuous"),
            "x": ("exposure", "binary"),
            "z": ("covariate", "continuous"),
        }
        assert cfg.spec.name == "quantile"
        assert cfg.spec.tau == 0.25
        assert cfg.settings.outcome_model == "kernel"
        assert cfg.settings.bandwidth == "auto"
        assert cfg.settings.trim == 0.02
        assert cfg.method == "estimating_equation"
        assert cfg.folds == 3
        assert cfg.seed == 11
        assert cfg.alpha == 0.1
        assert cfg.out == "run.json"
        assert cfg.resolved()["data"]["roles"]["x"] == ["exposure", "binary"]

    @pytest.mark.parametrize("alias,canonical", sorted(METHOD_ALIASES.items()))
    def test_method_aliases(self, alias, canonical):
        cfg = parse_config(MINIMAL + f"\n[run]\nmethod = {alias}\n")
        assert cfg.method == canonical

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# leading comment\n\n[data]\n; another comment\ndgp = normal-mean\n"
            "n = 50\n\n[estimand]\nname = population_mean\n"
        )
        assert parse_config(text).n == 50

    def test_unknown_section_names_line(self):
        text = "[data]\ndgp = normal-mean\nn = 5\n[extras]\n"
        with pytest.raises(ConfigError, match=r"line 4: unknown section \[extras\]"):
            parse_config(text)

    def test_key_outside_section_names_line(self):
        with pytest.raises(ConfigError, match=r"line 1: key outside any \[section\]"):
            parse_config("dgp = normal-mean\n")

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("[data]\njust words\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="line 2: empty key"):
            parse_config("[data]\n= 3\n")

    def test_duplicate_key_reports_both_lines(self):
        text = "[data]\ndgp = normal-mean\ndgp = ate-linear\n"
        with pytest.raises(
            ConfigError,
            match=r"line 3: duplicate key 'dgp' in \[data\] \(first set on line 2\)",
        ):
            parse_config(text)

    @pytest.mark.parametrize(
        "section,entry,message",
        [
            ("run", "folds = five", "folds must be an integer"),
            ("run", "alpha = wide", "alpha must be a number"),
            ("learners", "bandwidth = wide", "bandwidth must be 'auto' or a number"),
            ("learners", "outcome_interactions = maybe",
             "outcome_interactions must be true or false"),
            ("learners", "outcome_degree = 1.5", "outcome_degree must be an integer"),
            ("run", "seed = 1e400", "seed must be an integer"),
        ],
    )
    def test_coercion_errors(self, section, entry, message):
        with pytest.raises(ConfigError, match=f"line 9: {message}, got "):
            parse_config(MINIMAL + f"\n[{section}]\n{entry}\n")

    @pytest.mark.parametrize(
        "name,key,value,message",
        [
            ("quantile", "tau", "half", "estimand parameter tau='half' is invalid: expected float"),
            ("potential_outcome_mean", "x", "1.5",
             "estimand parameter x='1.5' is invalid: expected int"),
            ("population_mean", "foo", "1",
             "estimand 'population_mean' does not accept parameters ['foo']"),
            ("quantile", "tau", "1.5", "quantile level must be in (0, 1), got 1.5"),
            ("potential_outcome_mean", "x", "2", "potential outcome arm must be 0 or 1, got 2"),
            ("incremental_propensity", "epsilon", "-1",
             "epsilon must be positive, got -1.0"),
            ("tail_conditional_expectation", "threshold", "inf",
             "threshold must be finite, got inf"),
        ],
    )
    def test_estimand_value_errors_name_their_line(self, name, key, value, message):
        text = MINIMAL.replace("population_mean", f"{name}\n{key} = {value}")
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == f"line 7: {message}"
        with pytest.raises(ValidationError) as direct:  # API callers keep the bare wording
            from_config(name, {key: value})
        assert str(direct.value) == message

    @pytest.mark.parametrize(
        "key,text,value,message",
        [
            ("trim", "0.5", 0.5, "trim must be in [0, 0.5), got 0.5"),
            ("ridge_lambda", "nan", math.nan,
             "ridge_lambda must be finite and nonnegative, got nan"),
            ("ridge_lambda", "inf", math.inf,
             "ridge_lambda must be finite and nonnegative, got inf"),
            ("ridge_lambda", "-1", -1.0,
             "ridge_lambda must be finite and nonnegative, got -1.0"),
            ("outcome_degree", "5", 5, "polynomial degree must be in [1, 3], got 5"),
            ("propensity_degree", "0", 0, "polynomial degree must be in [1, 3], got 0"),
            ("bandwidth", "0", 0.0, "bandwidth must be 'auto' or positive and finite, got 0.0"),
            ("bandwidth", "-1", -1.0,
             "bandwidth must be 'auto' or positive and finite, got -1.0"),
            ("bandwidth", "inf", math.inf,
             "bandwidth must be 'auto' or positive and finite, got inf"),
            ("outcome_model", "forest", "forest",
             "outcome_model must be one of ('ols', 'kernel'), got 'forest'"),
        ],
    )
    def test_learner_value_errors_name_their_line(self, key, text, value, message):
        # kernel learners leave the polynomial degrees unused: they are checked all the same
        config = MINIMAL + f"\n[learners]\npropensity_model = kernel\n{key} = {text}\n"
        with pytest.raises(ConfigError) as caught:
            parse_config(config)
        assert str(caught.value) == f"line 10: {message}"
        with pytest.raises(ValidationError) as direct:  # API callers keep the bare wording
            LearnerSettings(**{key: value})
        assert str(direct.value) == message

    def test_a_negative_seed_names_its_line(self):
        with pytest.raises(ConfigError) as caught:
            parse_config(MINIMAL + "\n[run]\nfolds = 3\nseed = -1\n")
        assert str(caught.value) == "line 10: seed must be a non-negative integer, got -1"
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError) as direct:
            RunConfig(cfg.spec, cfg.settings, {}, seed=-1)
        assert str(direct.value) == "seed must be a non-negative integer, got -1"

    @pytest.mark.parametrize("key,value,message", [
        ("folds", 0, "folds must be at least 1, got 0"),
        ("alpha", 2.0, "alpha must be inside (0, 1), got 2.0"),
        ("alpha", 0.0, "alpha must be inside (0, 1), got 0.0"),
        ("method", "bayes", "unknown method 'bayes'; expected one of "
                            "['estimating_equation', 'one_step', 'plugin', 'tmle']"),
        ("method", "one-step", "unknown method 'one-step'; expected one of "
                               "['estimating_equation', 'one_step', 'plugin', 'tmle']"),
    ])
    def test_a_run_config_checks_its_own_values(self, key, value, message):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError) as direct:
            RunConfig(cfg.spec, cfg.settings, {}, **{key: value})
        assert str(direct.value) == message
        if key != "method":  # a config file names a method through its aliases
            with pytest.raises(ConfigError) as caught:
                parse_config(MINIMAL + f"\n[run]\n{key} = {value}\n")
            assert str(caught.value) == f"line 9: {message}"

    def test_a_range_error_over_several_values_names_the_section(self):
        text = MINIMAL.replace("population_mean", "conditional_cdf\ny = inf\nx = 0")
        with pytest.raises(ConfigError) as caught:
            parse_config(text)
        assert str(caught.value) == "[estimand]: conditional cdf needs finite y and x"

    def test_integer_text_is_read_exactly(self):
        seed = 12345678901234567891
        cfg = parse_config(MINIMAL + f"\n[run]\nseed = {seed}\nfolds = 3.0\n")
        assert cfg.seed == seed
        assert cfg.folds == 3 and type(cfg.folds) is int
        echo = json.loads(json.dumps(cfg.resolved()))
        assert echo["run"]["seed"] == seed
        assert parse_config(render_ini(echo)).seed == seed

    @pytest.mark.parametrize(
        "data_lines,message",
        [
            ("path = a.csv\ndgp = normal-mean\nrole.y = outcome,continuous",
             "either path or dgp, not both"),
            ("", "must set a csv path or a dgp name"),
            ("path = a.csv", "csv path needs role.<column> entries"),
            ("dgp = normal-mean", "with a dgp needs n"),
            ("dgp = normal-mean\nn = 10\nrole.y = outcome,continuous",
             "roles come from the dgp"),
            ("path = a.csv\nn = 10\nrole.y = outcome,continuous",
             "n only applies when drawing from a dgp"),
        ],
    )
    def test_data_section_rules(self, data_lines, message):
        text = f"[data]\n{data_lines}\n\n[estimand]\nname = population_mean\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_sample_size_below_one_names_its_line(self, n):
        text = f"[data]\ndgp = normal-mean\nn = {n}\n\n[estimand]\nname = population_mean\n"
        with pytest.raises(ConfigError, match=f"line 3: n must be at least 1, got {n}"):
            parse_config(text)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("role. = outcome,continuous", "role key needs a column name"),
            ("role.y = outcome", "must be '<role>,<kind>'"),
            ("role.y = target,continuous", "unknown role 'target'"),
            ("role.y = outcome,complex", "unknown kind 'complex'"),
            ("weights = w", r"unknown key 'weights' in \[data\]"),
        ],
    )
    def test_role_entry_errors(self, entry, message):
        text = f"[data]\npath = a.csv\n{entry}\n\n[estimand]\nname = population_mean\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_missing_estimand_name(self):
        with pytest.raises(ConfigError, match="missing the required key 'name'"):
            parse_config("[data]\ndgp = normal-mean\nn = 5\n[estimand]\ntau = 0.5\n")

    def test_unknown_estimand_lists_catalog(self):
        text = "[data]\ndgp = normal-mean\nn = 5\n[estimand]\nname = shapley\n"
        with pytest.raises(ConfigError, match="unknown estimand 'shapley'.*available:"):
            parse_config(text)

    @pytest.mark.parametrize(
        "name,required",
        [
            ("quantile", "tau"),
            ("tail_conditional_expectation", "threshold"),
            ("conditional_cdf", "y"),
        ],
    )
    def test_missing_required_estimand_param(self, name, required):
        text = f"[data]\ndgp = normal-mean\nn = 5\n[estimand]\nname = {name}\n"
        with pytest.raises(ConfigError, match=f"requires the key '{required}'"):
            parse_config(text)

    def test_point_evaluation_target_rejected_at_parse_time(self):
        text = "[data]\ndgp = normal-mean\nn = 5\n[estimand]\nname = density_at_point\n"
        with pytest.raises(NotPathwiseDifferentiableError, match="point-evaluation"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section,key", [("learners", "solver"), ("run", "threads")]
    )
    def test_unknown_keys_name_section_and_line(self, section, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
            parse_config(MINIMAL + f"\n[{section}]\n{key} = 1\n")

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="line 9: unknown method 'bayes'"):
            parse_config(MINIMAL + "\n[run]\nmethod = bayes\n")

    def test_folds_and_alpha_ranges(self):
        with pytest.raises(ConfigError, match="folds must be at least 1"):
            parse_config(MINIMAL + "\n[run]\nfolds = 0\n")
        with pytest.raises(ConfigError, match=r"alpha must be inside \(0, 1\)"):
            parse_config(MINIMAL + "\n[run]\nalpha = 1.5\n")

    def test_config_file_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config_file(str(tmp_path / "missing.ini"))

    @pytest.mark.parametrize("name,key", INTEGER_PARAMS)
    @pytest.mark.parametrize("value", ["1", "1.0", " 1 ", 1, 1.0])
    def test_integer_params_accept_integral_values(self, name, key, value):
        got = getattr(from_config(name, {key: value}), key)
        assert got == 1 and type(got) is int

    @pytest.mark.parametrize("name,key", INTEGER_PARAMS)
    @pytest.mark.parametrize("value", ["1.5", 1.7, "0.5", 0.999, "inf", "nan", "one"])
    def test_integer_params_reject_non_integral_values(self, name, key, value):
        with pytest.raises(ValidationError, match=f"{key}=.* is invalid: expected int"):
            from_config(name, {key: value})


def _configurable(name: str) -> bool:
    try:
        CATALOG[name]().nuisance_requirements()
    except NotPathwiseDifferentiableError:
        return False
    return True


CONFIGURABLE = [name for name in sorted(CATALOG) if _configurable(name)]
PATHS = st.text("abcxyz_./", min_size=1, max_size=12)
FIELD_VALUES = {
    "int": st.integers(0, 1),
    "float": st.floats(-1e6, 1e6),
    "str": st.sampled_from(("unit", "polynomial")),
    "tuple": st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3).map(tuple),
}
FIELD_OVERRIDES = {
    "tau": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "epsilon": st.floats(1e-6, 1e6),
}
DATA = st.one_of(
    st.fixed_dictionaries({"dgp": st.sampled_from(sorted(DGPS)), "n": st.integers(1, 10**6)}),
    st.fixed_dictionaries({"path": PATHS, "roles": st.dictionaries(
        st.text("abcxyz", min_size=1, max_size=4),
        st.tuples(st.sampled_from(ROLES), st.sampled_from(KINDS)),
        min_size=1, max_size=4,
    )}),
)
LEARNERS = st.fixed_dictionaries({}, optional={
    "outcome_model": st.sampled_from(_OUTCOME_MODELS),
    "outcome_degree": st.integers(1, 3),
    "outcome_interactions": st.booleans(),
    "propensity_model": st.sampled_from(_PROPENSITY_MODELS),
    "propensity_degree": st.integers(1, 3),
    "propensity_interactions": st.booleans(),
    "ridge_lambda": st.floats(0.0, 10.0),
    "bandwidth": st.one_of(st.just("auto"), st.floats(1e-3, 10.0)),
    "trim": st.floats(0.0, 0.49),
})
RUN = st.fixed_dictionaries({}, optional={
    "method": st.sampled_from(sorted(METHOD_ALIASES)),
    "folds": st.integers(1, 20),
    "seed": st.integers(0, 2**32),
    "alpha": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "out": PATHS,
})


@st.composite
def estimand_params(draw, name):
    """Valid parameters of one estimand: its required ones, and any others."""
    cls = CATALOG[name]
    params = {
        f.name: draw(FIELD_OVERRIDES.get(f.name, FIELD_VALUES[f.type]))
        for f in fields(cls)
        if f.name in cls.required_params or draw(st.booleans())
    }
    try:
        from_config(name, params)
    except ValidationError:
        assume(False)
    return params


def render_ini(resolved: dict) -> str:
    """A config document stating every value of a ``resolved()`` echo."""

    def text(value):
        if isinstance(value, (list, tuple)):
            return ", ".join(repr(float(v)) for v in value)
        return str(value)

    data = dict(resolved["data"])
    roles = data.pop("roles", {})
    sections = {
        "data": {**data, **{f"role.{col}": ",".join(pair) for col, pair in roles.items()}},
        "estimand": {"name": resolved["estimand"]["name"], **resolved["estimand"]["params"]},
        "learners": resolved["learners"],
        "run": {key: value for key, value in resolved["run"].items() if value is not None},
    }
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {text(value)}\n" for key, value in entries.items())
        for section, entries in sections.items()
    )


def test_schema_doc_lists_the_declared_keys():
    doc = (Path(__file__).parents[1] / "docs" / "schema.md").read_text()
    echoed = {
        section: re.findall(r"`(\w+)`", names)
        for section, names in re.findall(r"^- `(\w+)` echoes ([^.]*)\.", doc, re.M)
    }
    assert echoed["learners"] == [f.name for f in fields(LearnerSettings)]
    assert echoed["run"] == list(parse_config(MINIMAL).resolved()["run"])
    assert set(echoed["run"]) <= {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("name", CONFIGURABLE)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_round_trips_through_its_resolved_echo(name, data):
    first = parse_config(render_ini({
        "data": data.draw(DATA),
        "estimand": {"name": name, "params": data.draw(estimand_params(name))},
        "learners": data.draw(LEARNERS),
        "run": data.draw(RUN),
    }))
    again = parse_config(render_ini(first.resolved()))
    assert again == first
    assert again.resolved() == first.resolved()


class TestEstimateCommand:
    CSV = "y\n1.0\n2.0\n3.0\n6.0\n"
    CSV_CONFIG = """\
[data]
path = {path}
role.y = outcome,continuous

[estimand]
name = population_mean

[run]
method = one-step
folds = 1
"""

    def _csv_setup(self, tmp_path, csv_text=CSV):
        data = tmp_path / "obs.csv"
        data.write_text(csv_text)
        return write_config(tmp_path, self.CSV_CONFIG.format(path=data))

    def test_population_mean_from_csv(self, tmp_path):
        proc = run_cli("estimate", "--config", self._csv_setup(tmp_path), "--emit-eif")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) == {
            "tool", "version", "command", "config", "seed",
            "wall_clock_seconds", "result",
        }
        assert payload["command"] == "estimate"
        assert payload["config"]["run"]["method"] == "one_step"
        result = payload["result"]
        # The one-step population mean of {1, 2, 3, 6} is the sample mean.
        assert result["psi_hat"] == 3.0
        assert result["n"] == 4
        assert result["eif_values"] == [-2.0, -1.0, 0.0, 3.0]
        assert result["ci"][0] < 3.0 < result["ci"][1]

    def test_data_and_seed_overrides(self, tmp_path):
        cfg = self._csv_setup(tmp_path)
        other = tmp_path / "other.csv"
        other.write_text("y\n2.0\n3.0\n4.0\n7.0\n")
        proc = run_cli(
            "estimate", "--config", cfg, "--data", str(other), "--seed", "9"
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["seed"] == 9
        assert payload["result"]["psi_hat"] == 4.0
        assert "eif_values" not in payload["result"]

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        flag = write_config(tmp_path, MINIMAL)
        ini = write_config(tmp_path, MINIMAL + "\n[run]\nseed = -1\n", name="neg.ini")
        assert cli_main(["estimate", "--config", flag, "--seed", "-1"]) == 1
        assert cli_main(["estimate", "--config", ini]) == 1
        assert capsys.readouterr().err == (
            "influence-lab: error: seed must be a non-negative integer, got -1\n"
            "influence-lab: error: line 9: seed must be a non-negative integer, got -1\n"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exits_1_naming_row_and_column(self, tmp_path, capsys, cell):
        text = self.CSV_CONFIG.replace("role.y", "role.k = covariate,discrete\nrole.y")
        data = tmp_path / "obs.csv"
        data.write_text(f"y,k\n1.0,1\n2.0,{cell}\n3.0,0\n")
        config = tmp_path / "run.ini"
        config.write_text(text.format(path=data))
        assert cli_main(["estimate", "--config", str(config)]) == 1
        assert f"row 3, column 'k': non-finite value '{cell}'" in capsys.readouterr().err

    @pytest.mark.parametrize("estimand, learners, spread, bandwidth", [
        ("ate", "outcome_model = kernel\npropensity_model = kernel", 1.0, "1e-160"),
        ("ate", "outcome_model = kernel\npropensity_model = kernel", 1e-170, "auto"),
        ("average_density", "", 1.0, "1e-160"),
        ("average_density", "", 1e-170, "auto"),
    ])
    def test_a_kernel_bandwidth_too_small_to_square_exits_1(
        self, tmp_path, capsys, estimand, learners, spread, bandwidth
    ):
        rng = np.random.default_rng(4)
        z = spread * rng.normal(size=60)
        x = (rng.uniform(size=60) < 0.5).astype(float)
        y = spread * (x + rng.normal(size=60))
        data = tmp_path / "obs.csv"
        rows = zip(y.tolist(), x.tolist(), z.tolist())
        data.write_text("y,x,z\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows))
        text = (
            f"[data]\npath = {data}\nrole.y = outcome,continuous\nrole.x = exposure,binary\n"
            f"role.z = covariate,continuous\n\n[estimand]\nname = {estimand}\n\n"
            f"[learners]\n{learners}\nbandwidth = {bandwidth}\n\n[run]\nfolds = 2\n"
        )
        assert cli_main(["estimate", "--config", write_config(tmp_path, text)]) == 1
        assert "is too small: 1/h^2 is not finite" in capsys.readouterr().err

    def test_a_kernel_gradient_too_faint_to_square_exits_2(self, tmp_path, capsys):
        # row 0's exposure 14 past the rest leaves a total kernel weight near
        # 1e-170 at that row in its held-out fold: a prediction, but no gradient
        dataset = DGPS["partially-linear"]().generate(200, 3)
        values = np.array(dataset.values, dtype=float)
        names = [c.name for c in dataset.schema.columns]
        x = names.index("x")
        values[0, x] = values[:, x].max() + 14.0
        data = tmp_path / "obs.csv"
        data.write_text(",".join(names) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in values))
        text = (
            f"[data]\npath = {data}\nrole.z1 = covariate,continuous\n"
            "role.z2 = covariate,continuous\nrole.x = exposure,continuous\n"
            "role.y = outcome,continuous\n\n[estimand]\nname = average_derivative_effect\n\n"
            "[learners]\noutcome_model = kernel\npropensity_model = kernel\nbandwidth = 0.5\n\n"
            "[run]\nmethod = one-step\nfolds = 5\nseed = 0\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # boundary-mass warnings
            code = cli_main(["estimate", "--config", write_config(tmp_path, text)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == ("influence-lab: error: fold 3: kernel weight too small for a gradient "
                       "at query row 0; the point is too far from the training sample\n")

    @pytest.mark.parametrize("missing", ["outcome", "exposure", "mediator", "dgp"])
    def test_data_without_a_role_the_estimand_reads_exits_1(self, tmp_path, capsys, missing):
        if missing == "dgp":  # normal-mean draws an outcome alone
            text = "[data]\ndgp = normal-mean\nn = 120\n\n[estimand]\nname = ate\n"
            name, missing = "ate", "exposure"
        else:
            rng = np.random.default_rng(2)
            data = tmp_path / "obs.csv"
            data.write_text("z,x,m,y\n" + "".join(
                f"{z},{x},{m},{y!r}\n" for z, x, m, y in zip(
                    rng.integers(0, 2, 60), rng.integers(0, 2, 60), rng.integers(0, 2, 60),
                    rng.normal(size=60).tolist())
            ))
            roles = {"outcome": "role.y = outcome,continuous",
                     "exposure": "role.x = exposure,binary",
                     "mediator": "role.m = mediator,binary"}
            roles.pop(missing)
            name = "interventional_direct_effect"
            text = (f"[data]\npath = {data}\nrole.z = covariate,binary\n"
                    + "\n".join(roles.values()) + f"\n\n[estimand]\nname = {name}\n")
        assert cli_main(["estimate", "--config", write_config(tmp_path, text)]) == 1
        out, err = capsys.readouterr()
        article = "a" if missing == "mediator" else "an"
        assert out == ""
        assert err == (f"influence-lab: error: estimand {name!r} needs {article} "
                       f"{missing} column\n")

    def test_data_override_requires_roles(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        proc = run_cli("estimate", "--config", cfg, "--data", "whatever.csv")
        assert proc.returncode == 1
        assert "--data needs role.<column> entries" in proc.stderr

    def test_dgp_run_is_deterministic_and_writes_out(self, tmp_path):
        text = (
            "[data]\ndgp = ate-linear\nn = 250\n\n[estimand]\nname = ate\n\n"
            "[run]\nmethod = one-step\nfolds = 2\nseed = 4\n"
        )
        cfg = write_config(tmp_path, text)
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        proc_a = run_cli("estimate", "--config", cfg, "--out", out_a)
        proc_b = run_cli("estimate", "--config", cfg, "--out", out_b)
        assert proc_a.returncode == 0, proc_a.stderr
        assert proc_b.returncode == 0, proc_b.stderr
        assert proc_a.stdout == ""
        with open(out_a) as fh:
            payload_a = json.load(fh)
        with open(out_b) as fh:
            payload_b = json.load(fh)
        assert payload_a["result"] == payload_b["result"]
        assert payload_a["config"] == payload_b["config"]
        assert payload_a["result"]["se"] > 0.0

    @pytest.mark.parametrize("name", ["density_at_point", "conditional_mean_at"])
    def test_point_evaluation_targets_exit_1(self, tmp_path, name):
        text = f"[data]\ndgp = normal-mean\nn = 50\n\n[estimand]\nname = {name}\n"
        cfg = write_config(tmp_path, text)
        proc = run_cli("estimate", "--config", cfg)
        assert proc.returncode == 1
        assert "point-evaluation" in proc.stderr

    def test_conditional_cdf_from_config(self, tmp_path, capsys):
        text = (
            "[data]\ndgp = ate-linear\nn = 200\n\n[estimand]\nname = conditional_cdf\n"
            "y = 1.0\nx = 1\n\n[run]\nfolds = 2\n"
        )
        assert cli_main(["estimate", "--config", write_config(tmp_path, text)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["estimand"]["params"] == {"y": 1.0, "x": 1.0}
        assert 0.0 < payload["result"]["psi_hat"] < 1.0

    def test_non_integral_arm_exits_1(self, tmp_path, capsys):
        text = (
            "[data]\ndgp = ate-linear\nn = 50\n\n[estimand]\n"
            "name = potential_outcome_mean\nx = 1.5\n"
        )
        assert cli_main(["estimate", "--config", write_config(tmp_path, text)]) == 1
        assert "x='1.5' is invalid: expected int" in capsys.readouterr().err

    def test_missing_required_param_exits_1(self, tmp_path):
        text = "[data]\ndgp = normal-mean\nn = 50\n\n[estimand]\nname = quantile\n"
        cfg = write_config(tmp_path, text)
        proc = run_cli("estimate", "--config", cfg)
        assert proc.returncode == 1
        assert "requires the key 'tau'" in proc.stderr


class TestSimulateAndReport:
    def _simulate(self, tmp_path):
        out = tmp_path / "sim.json"
        proc = run_cli(
            "simulate", "--dgp", "normal-mean", "--estimand", "population_mean",
            "--n", "80", "--reps", "12", "--seed", "3", "--folds", "2",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        return out

    def test_simulate_envelope_and_draws(self, tmp_path):
        out = self._simulate(tmp_path)
        payload = json.loads(out.read_text())
        assert payload["command"] == "simulate"
        assert payload["config"]["dgp"] == "normal-mean"
        assert "dgp_params" in payload["config"]
        result = payload["result"]
        assert result["completed"] == 12
        assert len(result["psi_hats"]) == 12
        assert len(result["ses"]) == 12
        assert result["excluded"] == []

    def test_simulate_result_is_deterministic(self, tmp_path, capsys):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            code = cli_main([
                "simulate", "--dgp", "ate-linear", "--estimand", "ate", "--method", "tmle",
                "--n", "200", "--reps", "4", "--seed", "5", "--folds", "2", "--out", str(out),
            ])
            assert code == 0, capsys.readouterr().err
        a, b = (json.loads(out.read_text())["result"] for out in outs)
        assert a == b
        assert set(a["extras"]) == {"max_tmle_score", "max_tmle_aipw_gap"}

    def test_report_renders_aligned_table(self, tmp_path):
        out = self._simulate(tmp_path)
        proc = run_cli("report", "--in", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        for label in ("dgp", "estimand", "bias", "coverage", "rmse"):
            assert label in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "normal-mean" in lines[2]
        assert "population_mean" in lines[2]

    def test_report_writes_table_file_and_svg(self, tmp_path):
        out = self._simulate(tmp_path)
        table = tmp_path / "table.txt"
        svg = tmp_path / "hist.svg"
        proc = run_cli(
            "report", "--in", str(out), "--out", str(table), "--svg", str(svg)
        )
        assert proc.returncode == 0, proc.stderr
        assert "rmse" in table.read_text()
        drawing = svg.read_text()
        assert drawing.startswith("<svg")
        assert "<rect" in drawing
        assert "<polyline" in drawing
        assert "(estimate - truth) / estimated se" in drawing

    def test_report_rejects_non_simulation_payload(self, tmp_path):
        bogus = tmp_path / "other.json"
        bogus.write_text('{"tool": "other"}\n')
        proc = run_cli("report", "--in", str(bogus))
        assert proc.returncode == 1
        assert "not a simulation result payload" in proc.stderr

    def test_report_rejects_invalid_and_missing_input(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        proc = run_cli("report", "--in", str(broken))
        assert proc.returncode == 1
        assert "not valid JSON" in proc.stderr
        proc = run_cli("report", "--in", str(tmp_path / "absent.json"))
        assert proc.returncode == 1
        assert "cannot read report input" in proc.stderr

    def test_report_svg_needs_embedded_draws(self, tmp_path):
        out = self._simulate(tmp_path)
        payload = json.loads(out.read_text())
        del payload["result"]["psi_hats"]
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps(payload))
        proc = run_cli(
            "report", "--in", str(stripped), "--svg", str(tmp_path / "h.svg")
        )
        assert proc.returncode == 1
        assert "re-run simulate" in proc.stderr

    def test_simulate_unknown_dgp_exits_1(self):
        proc = run_cli("simulate", "--dgp", "nope", "--reps", "1", "--n", "10")
        assert proc.returncode == 1
        assert "choose from" in proc.stderr

    def test_simulate_unknown_method_exits_1(self):
        proc = run_cli(
            "simulate", "--dgp", "normal-mean", "--method", "bayes",
            "--reps", "1", "--n", "10",
        )
        assert proc.returncode == 1
        assert "unknown method 'bayes'" in proc.stderr

    def test_the_cli_loads_no_process_pool(self):
        # replications run one after another in the calling process
        code = ("import sys, influence_lab.cli; "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_simulate_echo_states_learners_and_alpha(self, tmp_path):
        config = json.loads(self._simulate(tmp_path).read_text())["config"]
        assert config["learners"] == LearnerSettings().to_json()
        assert config["alpha"] == DEFAULT_ALPHA

    def test_arms_echo_the_learners_of_each_arm(self, capsys):
        arms = ("both_correct", "outcome_wrong")
        code = cli_main(["simulate", "--dgp", "ate-nonlinear", "--arms", ",".join(arms),
                         "--n", "200", "--reps", "2", "--folds", "2"])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["learners"] == {arm: ARM_SETTINGS[arm].to_json() for arm in arms}
        assert list(payload["result"]) == list(arms)

    def test_arms_refuse_an_estimand_other_than_the_ate(self):
        proc = run_cli(
            "simulate", "--dgp", "ate-nonlinear", "--estimand", "potential_outcome_mean",
            "--arms", "both_correct", "--reps", "1", "--n", "50",
        )
        assert proc.returncode == 1
        assert "estimates the ate, not potential_outcome_mean" in proc.stderr
        assert proc.stdout == ""

    def test_arms_require_the_nonlinear_process(self):
        proc = run_cli(
            "simulate", "--dgp", "normal-mean", "--arms", "both_correct",
            "--reps", "1", "--n", "10",
        )
        assert proc.returncode == 1
        assert "defined on the ate-nonlinear process" in proc.stderr


    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(-2, 6), folds=st.integers(-1, 7), reps=st.integers(0, 3))
    def test_size_edges_exit_1_before_any_replication(self, n, folds, reps):
        argv = ["simulate", "--dgp", "normal-mean", "--estimand", "population_mean",
                "--n", str(n), "--folds", str(folds), "--reps", str(reps)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code == (0 if reps >= 1 and n >= 2 and 1 <= folds <= n else 1)
        if code == 0:
            assert json.loads(out.getvalue())["result"]["completed"] == reps
        else:
            assert err.getvalue().startswith("influence-lab: error:")
            assert "replications failed" not in err.getvalue()


class TestVerifyCommand:
    def test_smooth_only_estimand_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        proc = run_cli("verify-eif", "--spec", "quantile", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        result = payload["result"]
        assert result["point_mass_t0"]["checked"] == 0
        assert result["smooth_families"]["checked"] >= 1
        assert result["smooth_families"]["skipped"] == 0
        assert result["failures"] == 0

    def test_impossible_tolerance_exits_3_after_emitting(self):
        proc = run_cli(
            "verify-eif", "--spec", "ate", "--trials", "2", "--seed", "1",
            "--tolerance", "1e-18",
        )
        assert proc.returncode == 3
        payload = json.loads(proc.stdout)
        assert payload["result"]["failures"] > 0
        assert "exceeded tolerance" in proc.stderr

    def test_unknown_name_lists_coverage(self):
        proc = run_cli("verify-eif", "--spec", "made_up")
        assert proc.returncode == 1
        assert "no verification case covers estimand 'made_up'" in proc.stderr

    @settings(max_examples=30, deadline=None)
    @given(
        trials=st.integers(-2, 2), seed=st.integers(-2, 5),
        tolerance=st.sampled_from((1e-6, 0.5, 1e300, -1e-6, math.nan, math.inf, -math.inf)),
    )
    def test_argument_edges_keep_the_exit_code_contract(self, trials, seed, tolerance):
        argv = ["verify-eif", "--spec", "population_mean", "--trials", str(trials),
                "--seed", str(seed), f"--tolerance={tolerance!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 1)
        valid_tolerance = math.isfinite(tolerance) and tolerance >= 0.0
        assert (code == 0) == (trials >= 1 and seed >= 0 and valid_tolerance)
        if code == 0:
            result = json.loads(out.getvalue())["result"]
            assert result["point_mass_t0"]["checked"] >= 1
            assert result["identity_t1"]["checked"] >= 1
        else:
            assert err.getvalue().startswith("influence-lab: error:")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_tolerance_exits_1(self, tolerance):
        proc = run_cli("verify-eif", "--spec", "population_mean", "--trials", "1",
                       f"--tolerance={tolerance}")
        assert proc.returncode == 1
        assert "--tolerance must be a finite number >= 0" in proc.stderr
        assert proc.stdout == ""


class TestArgumentErrors:
    def test_unrecognized_flag_exits_1(self):
        proc = run_cli("simulate", "--dgp", "normal-mean", "--frobnicate")
        assert proc.returncode == 1
        assert "unrecognized arguments" in proc.stderr

    def test_missing_required_flag_exits_1(self):
        proc = run_cli("estimate")
        assert proc.returncode == 1
        assert "--config" in proc.stderr

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("influence-lab ")
