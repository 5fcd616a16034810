"""The class-level declarations of each estimand, checked against what reads
them: the nuisance container, the dataclass fields, the roles, the exact
nuisances and the derivative oracle's min-cell check.  Every data role an
estimand declares in ``roles`` is refused, naming the estimand and the role,
wherever data without it reaches the estimand."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_lab import (
    CATALOG,
    ESTIMATORS,
    Column,
    ColumnSet,
    Dataset,
    DiscreteDistribution,
    Estimand,
    NotPathwiseDifferentiableError,
    NuisanceError,
    NuisanceSet,
    Schema,
    SchemaError,
    estimate,
    exact_nuisances,
    from_config,
)
from influence_lab.distributions import ROLES
from influence_lab.gateaux import (
    SWEEP_PLAN,
    _SWEEP_PARAMS,
    _min_conditioning_cell,
    random_law,
)

NUISANCE_FIELDS = {f.name for f in fields(NuisanceSet)}
SCHEMAS = tuple(dict.fromkeys(schema for _, schema in SWEEP_PLAN))
SWEPT = {entry.split(":")[0] for entry, _ in SWEEP_PLAN}


def rejected(cls) -> bool:
    """A point-evaluation functional: asking for its slots raises."""
    try:
        cls().nuisance_requirements()
    except NotPathwiseDifferentiableError:
        return True
    return False


def sweep_specs(law: DiscreteDistribution):
    """Every SWEEP_PLAN estimand on the law's schema, with its sweep parameters."""
    rng = np.random.default_rng(0)
    for entry, schema in SWEEP_PLAN:
        if schema is law.schema:
            params = _SWEEP_PARAMS.get(entry, lambda rng, law: {})(rng, law)
            yield CATALOG[entry.split(":")[0]](**params)


def parent_min_conditioning_cell(spec, law) -> float:
    """The min-cell check as it read slot names before ``conditioning_cells``."""
    needs = spec.nuisance_requirements()
    groupings = []
    if {"outcome_mean", "propensity", "conditional_mean_y", "conditional_mean_x",
        "mediated_outcome", "mediator_law"} & needs:
        groupings.append(("covariate",))
        if ({"outcome_mean", "propensity", "mediated_outcome", "mediator_law"} & needs
                and law.schema.indices_with_role("exposure")):
            groupings.append(("covariate", "exposure"))
    if not groupings:
        return 1.0
    return float(min(np.bincount(law.cells(*roles)[1], weights=law.probs).min()
                     for roles in groupings))


@pytest.mark.parametrize("name", sorted(CATALOG))
class TestDeclarations:
    def test_slots_are_nuisance_fields(self, name):
        cls = CATALOG[name]
        assert cls.slots <= NUISANCE_FIELDS
        if not rejected(cls):
            assert cls().nuisance_requirements() == cls.slots

    def test_required_params_are_fields(self, name):
        cls = CATALOG[name]
        assert set(cls.required_params) <= {f.name for f in fields(cls)}

    def test_conditioning_cells_use_roles(self, name):
        for roles in CATALOG[name].conditioning_cells:
            assert roles and set(roles) <= set(ROLES)

    def test_params_echo_every_field(self, name):
        spec = CATALOG[name]()
        assert set(spec.params()) <= {f.name for f in fields(spec)}
        assert from_config(name, spec.params()) == spec


@pytest.mark.parametrize("name", sorted(n for n, cls in CATALOG.items() if cls.slots))
def test_bare_nuisance_set_names_a_slot(name):
    spec = CATALOG[name]()
    cols = ColumnSet(n=3, y=np.array([0.0, 1.0, 2.0]), x=np.array([0.0, 1.0, 1.0]),
                     Z=np.zeros((3, 1)), M=np.zeros((3, 1)))
    calls = [lambda: spec.eif_values(cols, NuisanceSet(), 0.0)]
    if type(spec).nuisance_values is not Estimand.nuisance_values:
        calls.append(lambda: NuisanceSet().table(spec, cols))
    for call in calls:
        with pytest.raises(NuisanceError) as err:
            call()
        assert any(slot in str(err.value) for slot in spec.slots)


def test_every_finite_support_estimand_is_swept():
    oracle = {name for name, cls in CATALOG.items() if cls.discrete_oracle}
    assert oracle == SWEPT


@pytest.mark.parametrize("schema", SCHEMAS, ids=lambda s: "-".join(s.names))
def test_exact_nuisances_fill_every_slot(schema):
    law = random_law(np.random.default_rng(3), schema)
    for spec in sweep_specs(law):
        nuis = exact_nuisances(spec, law)
        assert all(getattr(nuis, slot) is not None for slot in spec.slots)
        cols = ColumnSet.from_matrix(law.schema, law.values)
        assert np.isfinite(spec.eif_values(cols, nuis, spec.plugin_value(law))).all()


@st.composite
def sweep_laws(draw):
    """A law on a SWEEP_PLAN schema with repeated rows and zero weights allowed,
    so conditioning cells of zero or tiny mass occur."""
    schema = draw(st.sampled_from(SCHEMAS))
    value = st.tuples(*(
        st.sampled_from((-1.0, 0.0, 0.5, 2.0) if c.kind == "continuous"
                        else (0.0, 1.0) if c.kind == "binary" else (0.0, 1.0, 2.0))
        for c in schema.columns
    ))
    rows = draw(st.lists(value, min_size=1, max_size=12))
    weights = draw(st.lists(st.sampled_from((0, 1, 3, 1000)), min_size=len(rows),
                            max_size=len(rows)))
    if not any(weights):
        weights[0] = 1
    return DiscreteDistribution(schema, rows, [w / sum(weights) for w in weights])


@settings(max_examples=50, deadline=None)
@given(sweep_laws())
def test_min_conditioning_cell_matches_the_slot_sets(law):
    for spec in sweep_specs(law):
        assert _min_conditioning_cell(spec, law) == parent_min_conditioning_cell(spec, law)


# Every role an estimand may read, on a z/x/m/y schema; a test drops one column.
ALL_ROLES = Schema((
    Column("z", "covariate", "binary"),
    Column("x", "exposure", "binary"),
    Column("m", "mediator", "binary"),
    Column("y", "outcome", "continuous"),
))
ROLE_PAIRS = [(name, role) for name, cls in sorted(CATALOG.items()) if not rejected(cls)
              for role in cls.roles]
REJECTED = sorted(name for name, cls in CATALOG.items() if rejected(cls))


def without(role: str, values: np.ndarray) -> tuple:
    """The ALL_ROLES schema and ``values`` with the ``role`` column dropped."""
    keep = [i for i, c in enumerate(ALL_ROLES.columns) if c.role != role]
    return Schema(tuple(ALL_ROLES.columns[i] for i in keep)), values[:, keep]


def dataset_without(role: str) -> Dataset:
    rng = np.random.default_rng(5)
    values = np.column_stack([rng.integers(0, 2, (120, 3)), rng.normal(size=120)])
    return Dataset(*without(role, values.astype(float)))


def law_without(role: str) -> DiscreteDistribution:
    grid = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [-0.5, 1.5]))
    schema, support = without(role, grid.reshape(4, -1).T)
    return DiscreteDistribution(schema, support, np.full(len(support), 1.0 / len(support)))


def refused(name: str, role: str, call) -> None:
    with pytest.raises(SchemaError) as err:
        call()
    article = "a" if role == "mediator" else "an"
    assert str(err.value) == f"estimand {name!r} needs {article} {role} column"


def test_declared_roles_are_roles_the_estimands_can_read():
    for cls in CATALOG.values():
        assert cls.roles and set(cls.roles) <= set(ROLES) - {"covariate"}
    assert len(ROLE_PAIRS) == len(set(ROLE_PAIRS))


@pytest.mark.parametrize("name,role", ROLE_PAIRS)
def test_estimate_refuses_data_without_a_declared_role(name, role):
    spec, data = CATALOG[name](), dataset_without(role)
    refused(name, role, lambda: spec.validate_schema(data.schema))
    for method in ESTIMATORS if spec.contrast else set(ESTIMATORS) - {"tmle"}:
        refused(name, role, lambda: estimate(spec, data, method=method, folds=2))
        refused(name, role, lambda: ESTIMATORS[method](spec, data, NuisanceSet()))


@pytest.mark.parametrize("name,role", ROLE_PAIRS)
def test_the_influence_function_refuses_columns_without_a_declared_role(name, role):
    spec, data = CATALOG[name](), dataset_without(role)
    cols = ColumnSet.from_dataset(data)
    refused(name, role, lambda: spec.eif_values(cols, NuisanceSet(), 0.0))
    refused(name, role, lambda: spec.plugin_estimate(cols, NuisanceSet()))
    refused(name, role, lambda: NuisanceSet().table(spec, cols))


@pytest.mark.parametrize("name,role", [(name, role) for name, role in ROLE_PAIRS
                                       if CATALOG[name].discrete_oracle])
def test_the_oracle_refuses_a_law_without_a_declared_role(name, role):
    spec, law = CATALOG[name](), law_without(role)
    refused(name, role, lambda: spec.plugin_value(law))
    refused(name, role, lambda: exact_nuisances(spec, law))


@pytest.mark.parametrize("name", REJECTED)
def test_a_rejected_functional_is_refused_before_its_roles(name):
    spec, data = CATALOG[name](), dataset_without("outcome")
    for call in (lambda: spec.validate_schema(data.schema),
                 lambda: estimate(spec, data, folds=2),
                 lambda: spec.plugin_value(law_without("outcome")),
                 lambda: exact_nuisances(spec, law_without("outcome"))):
        with pytest.raises(NotPathwiseDifferentiableError):
            call()
