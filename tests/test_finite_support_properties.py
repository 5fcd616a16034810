"""Property tests for finite-support laws, their plug-in values and their
exact nuisances.

Random laws range over the four sweep schemas and include duplicate atoms
and atoms of zero probability.  Every plug-in value and every exact
nuisance slot is compared with a direct per-atom sum written here, and an
undefined conditional mean must raise ``PositivityError`` on both sides.
The reuse of a support's groupings, role columns and row lookups is
compared bit for bit with building them afresh.
"""
import itertools
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_lab import (
    Ate,
    AverageDensity,
    ConditionalCdf,
    Covariance,
    DiscreteDistribution,
    ExpectedConditionalCovariance,
    IncrementalPropensity,
    InterventionalDirectEffect,
    MixturePath,
    PartiallyLinearCoefficient,
    PopulationMean,
    PositivityError,
    PotentialOutcomeMean,
    Quantile,
    TailConditionalExpectation,
    exact_nuisances,
    mixture_at,
)
from influence_lab import distributions
from influence_lab.distributions import _group_rows, find_rows
from influence_lab.estimands import ColumnSet, support_columns
from influence_lab.gateaux import (
    EXPOSURE_OUTCOME,
    FULL_SCHEMA,
    MEDIATION_SCHEMA,
    OUTCOME_ONLY,
    SWEEP_PLAN,
    _SWEEP_PARAMS,
    CATALOG,
    check_t1_identity,
    contaminant_law,
    random_law,
    verify_eif,
)

SPECS = {
    OUTCOME_ONLY: (
        PopulationMean(), AverageDensity(), TailConditionalExpectation(threshold=0.0),
        Quantile(tau=0.5),
    ),
    EXPOSURE_OUTCOME: (Covariance(), ConditionalCdf(y=0.0, x=1.0)),
    FULL_SCHEMA: (
        PotentialOutcomeMean(1), PotentialOutcomeMean(0), Ate(),
        ExpectedConditionalCovariance(), PartiallyLinearCoefficient(),
        IncrementalPropensity(epsilon=2.0),
    ),
    MEDIATION_SCHEMA: (InterventionalDirectEffect(x1=1, x0=0),),
}
LEVELS = {"binary": (0.0, 1.0), "discrete": (0.0, 1.0, 2.0)}
OUTCOMES = (-1.5, -0.25, 0.0, 0.5, 2.0)
BOUNDED = settings(max_examples=50, deadline=None)
UNDEFINED = "undefined"


@st.composite
def raw_laws(draw, schema=None):
    """(schema, rows, probs) with repeated rows and zero weights allowed."""
    if schema is None:
        schema = draw(st.sampled_from(tuple(SPECS)))
    value = st.tuples(*(
        st.sampled_from(OUTCOMES if c.kind == "continuous" else LEVELS[c.kind])
        for c in schema.columns
    ))
    rows = draw(st.lists(value, min_size=1, max_size=10))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    if not any(weights):
        weights[0] = 1
    return schema, rows, [w / sum(weights) for w in weights]


@st.composite
def law_pairs(draw):
    """Two laws on one schema; the second supplies off-support query rows."""
    schema, rows, probs = draw(raw_laws())
    _, other_rows, other_probs = draw(raw_laws(schema))
    return (
        DiscreteDistribution(schema, rows, probs),
        DiscreteDistribution(schema, other_rows, other_probs),
    )


def outcome(fn):
    try:
        return fn()
    except PositivityError:
        return UNDEFINED


def assert_same(got, want):
    if want is UNDEFINED or got is UNDEFINED:
        assert got is want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# direct per-atom sums
# ---------------------------------------------------------------------------

Atom = namedtuple("Atom", "p z x y m")


def atoms(law, rows=None):
    """Atoms (or query rows, with p = 0) split by role; z and m are tuples."""
    roles = [c.role for c in law.schema.columns]
    probs = law.probs.tolist() if rows is None else [0.0] * len(rows)
    out = []
    for p, row in zip(probs, law.support if rows is None else rows):
        pick = [tuple(v for v, r in zip(row, roles) if r == role)
                for role in ("covariate", "exposure", "outcome", "mediator")]
        out.append(Atom(p, pick[0], pick[1][0] if pick[1] else None, pick[2][0], pick[3]))
    return out


def mass(law, keep):
    return sum(a.p for a in atoms(law) if keep(a))


def cond_mean(law, value, keep):
    """E[value | keep]; raises PositivityError when keep has no mass."""
    w = mass(law, keep)
    if w <= 0.0:
        raise PositivityError("zero-probability cell")
    return sum(a.p * value(a) for a in atoms(law) if keep(a)) / w


def live_z(law):
    return {a.z for a in atoms(law) if mass(law, lambda b: b.z == a.z) > 0.0}


def arm_mean(law, arm, z):
    return cond_mean(law, lambda a: a.y, lambda a: a.z == z and a.x == arm)


def reference_plugin(spec, law):
    A = atoms(law)
    ey = sum(a.p * a.y for a in A)
    if isinstance(spec, PopulationMean):
        return ey
    if isinstance(spec, AverageDensity):
        return sum(mass(law, lambda a: a.y == v) ** 2 for v in {a.y for a in A})
    if isinstance(spec, TailConditionalExpectation):
        return cond_mean(law, lambda a: a.y, lambda a: a.y <= spec.threshold)
    if isinstance(spec, Quantile):
        cum = 0.0
        for v in sorted({a.y for a in A}):
            cum += mass(law, lambda a: a.y == v)
            if cum >= spec.tau - 1e-15:
                break
        return v
    if isinstance(spec, Covariance):
        ex = sum(a.p * a.x for a in A)
        return sum(a.p * (a.y - ey) * (a.x - ex) for a in A)
    if isinstance(spec, ConditionalCdf):
        return cond_mean(law, lambda a: float(a.y <= spec.y), lambda a: a.x == spec.x)
    if isinstance(spec, PotentialOutcomeMean):
        return sum(mass(law, lambda a: a.z == z) * arm_mean(law, spec.x, z) for z in live_z(law))
    if isinstance(spec, Ate):
        return sum(
            mass(law, lambda a: a.z == z) * (arm_mean(law, 1, z) - arm_mean(law, 0, z))
            for z in live_z(law)
        )
    if isinstance(spec, (ExpectedConditionalCovariance, PartiallyLinearCoefficient)):
        g = {z: (cond_mean(law, lambda a: a.y, lambda a: a.z == z),
                 cond_mean(law, lambda a: a.x, lambda a: a.z == z)) for z in live_z(law)}
        live = [(a.p, a.y - g[a.z][0], a.x - g[a.z][1]) for a in A if a.p > 0.0]
        num = sum(p * ry * rx for p, ry, rx in live)
        if isinstance(spec, ExpectedConditionalCovariance):
            return num
        den = sum(p * rx * rx for p, ry, rx in live)
        if den <= 0.0:
            raise PositivityError("no residual exposure variance")
        return num / den
    if isinstance(spec, IncrementalPropensity):
        total = 0.0
        for z in live_z(law):
            pz = mass(law, lambda a: a.z == z)
            pi = mass(law, lambda a: a.z == z and a.x == 1.0) / pz
            g1 = spec.epsilon * pi / (spec.epsilon * pi + 1.0 - pi)
            term = g1 * arm_mean(law, 1.0, z) if g1 > 0.0 else 0.0
            term += (1.0 - g1) * arm_mean(law, 0.0, z) if g1 < 1.0 else 0.0
            total += pz * term
        return total
    if isinstance(spec, InterventionalDirectEffect):
        total = 0.0
        for z in live_z(law):
            p_x0 = mass(law, lambda a: a.z == z and a.x == spec.x0)
            if p_x0 <= 0.0:
                raise PositivityError("no mass on the x0 arm")
            inner = 0.0
            for mk in {a.m for a in A}:
                w = mass(law, lambda a: (a.z, a.x, a.m) == (z, spec.x0, mk))
                if w > 0.0:
                    b = cond_mean(law, lambda a: a.y,
                                  lambda a: (a.z, a.x, a.m) == (z, spec.x1, mk))
                    inner += b * w / p_x0
            total += mass(law, lambda a: a.z == z) * inner
        return total
    raise AssertionError(f"no reference for {spec.name}")


def reference_slot(slot, law, q):
    """Exact nuisance ``slot`` at one query row ``q``, by direct sums."""
    if slot == "outcome_mean":
        return cond_mean(law, lambda a: a.y, lambda a: (a.z, a.x) == (q.z, q.x))
    if slot == "propensity":
        return cond_mean(law, lambda a: float(a.x == 1.0), lambda a: a.z == q.z)
    if slot == "conditional_mean_y":
        return cond_mean(law, lambda a: a.y, lambda a: a.z == q.z)
    if slot == "conditional_mean_x":
        return cond_mean(law, lambda a: a.x, lambda a: a.z == q.z)
    if slot == "marginal_density":
        return mass(law, lambda a: a.y == q.y)
    if slot == "outcome_cdf":
        return mass(law, lambda a: a.y <= q.y)
    if slot == "exposure_prob":
        return mass(law, lambda a: a.x == q.x)
    if slot == "mediated_outcome":
        return cond_mean(law, lambda a: a.y, lambda a: (a.z, a.x, a.m) == (q.z, q.x, q.m))
    if slot == "mediator_law":
        given = mass(law, lambda a: (a.z, a.x) == (q.z, q.x))
        if given <= 0.0:
            return 0.0
        return mass(law, lambda a: (a.z, a.x, a.m) == (q.z, q.x, q.m)) / given
    raise AssertionError(slot)


def call_slot(fn, slot, q):
    """Call a nuisance function at one query row, with the slot's arguments."""
    Z, M = np.array([q.z]), np.array([q.m])
    x, y = np.array([q.x]), np.array([q.y])
    args = {
        "outcome_mean": (x, Z), "propensity": (Z,), "conditional_mean_y": (Z,),
        "conditional_mean_x": (Z,), "marginal_density": (y,), "outcome_cdf": (y,),
        "exposure_prob": (x,), "mediated_outcome": (M, x, Z), "mediator_law": (M, x, Z),
    }[slot]
    values = fn(*args)
    assert values.shape == (1,)
    return float(values[0])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@BOUNDED
@given(raw_laws())
def test_atoms_keep_first_occurrence_order_and_duplicates_merge(raw):
    schema, rows, probs = raw
    law = DiscreteDistribution(schema, rows, probs)
    merged: dict = {}
    for row, p in zip(rows, probs):
        key = tuple(float(v) for v in row)
        merged[key] = merged.get(key, 0.0) + p
    assert law.support == tuple(merged)
    assert law.probs.tolist() == list(merged.values())
    for key, p in merged.items():
        assert law.prob_of(key) == p


@BOUNDED
@given(law_pairs())
def test_plugin_values_match_per_atom_sums(pair):
    law, _ = pair
    for spec in SPECS[law.schema]:
        assert_same(outcome(lambda: spec.plugin_value(law)),
                    outcome(lambda: reference_plugin(spec, law)))


@BOUNDED
@given(law_pairs())
def test_exact_nuisances_match_per_atom_sums(pair):
    law, other = pair
    queries = atoms(law, law.support) + atoms(law, other.support)
    for spec in SPECS[law.schema]:
        if isinstance(spec, Quantile):
            continue
        nuis = exact_nuisances(spec, law)
        for slot in sorted(spec.nuisance_requirements()):
            value = getattr(nuis, slot)
            if slot == "exposure_residual_var":
                A = [a for a in atoms(law) if a.p > 0.0]
                gx = {a.z: cond_mean(law, lambda b: b.x, lambda b: b.z == a.z) for a in A}
                assert value == pytest.approx(
                    sum(a.p * (a.x - gx[a.z]) ** 2 for a in A), rel=1e-12, abs=1e-12)
            elif slot in ("mean_y", "mean_x"):
                want = sum(a.p * (a.y if slot == "mean_y" else a.x) for a in atoms(law))
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
            elif slot == "mediator_support":
                assert value == tuple(sorted({a.m for a in atoms(law)}))
            else:
                for q in queries:
                    assert_same(outcome(lambda: call_slot(value, slot, q)),
                                outcome(lambda: reference_slot(slot, law, q)))


@BOUNDED
@given(raw_laws(FULL_SCHEMA), st.sampled_from(LEVELS["binary"]))
def test_lookup_at_a_zero_probability_cell_raises(raw, x):
    schema, rows, probs = raw
    # covariate level 3 is never drawn: its only atom has probability zero
    law = DiscreteDistribution(schema, rows + [(3.0, x, 0.0)], probs + [0.0])
    nuis = exact_nuisances(Ate(), law)
    with pytest.raises(PositivityError):
        nuis.propensity(np.array([[3.0]]))
    for arm in (0.0, 1.0):
        with pytest.raises(PositivityError):
            nuis.outcome_mean(np.array([arm]), np.array([[3.0]]))


@BOUNDED
@given(law_pairs(), st.floats(0.0, 1.0))
def test_mixture_reproduces_endpoints_and_is_affine(pair, t):
    base, cont = pair
    path = MixturePath(base, cont)
    new = [a for a in cont.support if a not in base.support]
    for s, want in ((0.0, base), (1.0, cont), (t, None)):
        law = mixture_at(path, s)
        assert law.support == base.support + tuple(new)
        for a, p in zip(law.support, law.probs.tolist()):
            if want is None:
                assert p == (1.0 - t) * base.prob_of(a) + t * cont.prob_of(a)
            else:
                assert p == want.prob_of(a)


@st.composite
def probability_matrices(draw):
    """A law and a (rows, atoms) matrix of laws on its support: random rows
    with zero entries allowed, and rows of the point-mass paths the
    derivative oracle steps along, (1 - t) p + t * 1{atom}."""
    schema, rows, probs = draw(raw_laws())
    law = DiscreteDistribution(schema, rows, probs)
    k = law.n_atoms
    matrix = []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        if not any(weights):
            weights[draw(st.integers(0, k - 1))] = 1
        matrix.append([w / sum(weights) for w in weights])
    t = draw(st.sampled_from((0.0, 1e-2 / 2**12, 1e-2, 0.5)))
    for atom in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        matrix.append(((1.0 - t) * law.probs + t * np.eye(k)[atom]).tolist())
    return law, np.array(matrix)


@BOUNDED
@given(probability_matrices())
def test_batched_plugins_equal_their_one_row_calls(case):
    law, probs = case
    for spec in SPECS[law.schema]:
        alone = [
            outcome(lambda: spec.plugin_value(DiscreteDistribution(law.schema, law.values, row)))
            for row in probs
        ]
        if UNDEFINED in alone:
            with pytest.raises(PositivityError):
                spec.plugin_values(law, probs)
        else:
            together = spec.plugin_values(law, probs)
            assert together.shape == (len(probs),)
            assert [float(v).hex() for v in together] == [float(v).hex() for v in alone]


def unique_reference(rows: np.ndarray):
    """The grouping by ``np.unique`` over the rows viewed as records, which
    compare field by field (so -0.0 and 0.0 are equal)."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.shape[1]:
        records = rows.view([(f"c{j}", float) for j in range(rows.shape[1])])[:, 0]
    else:
        records = np.zeros(len(rows), dtype=[("c", float)])
    _, first, cell = np.unique(records, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rows[first[order]], rank[cell]


@BOUNDED
@given(st.integers(0, 4).flatmap(lambda width: st.lists(
    st.tuples(*[st.sampled_from((-0.0, 0.0, 1.0, -2.5, 1e-300))] * width),
    min_size=1, max_size=16)))
def test_grouping_equals_the_unique_reference(rows):
    rows = np.array(rows, dtype=float)
    distinct, cell = _group_rows(rows)
    want_distinct, want_cell = unique_reference(rows)
    assert distinct.shape == want_distinct.shape
    assert [v.hex() for v in distinct.ravel().tolist()] == [
        v.hex() for v in want_distinct.ravel().tolist()]
    assert cell.tolist() == want_cell.tolist()


# ---------------------------------------------------------------------------
# reuse of what a support holds, against building it afresh
# ---------------------------------------------------------------------------

CELL_VALUES = (-0.0, 0.0, 1.0, -2.5)


@BOUNDED
@given(st.integers(0, 3).flatmap(lambda width: st.tuples(
    st.lists(st.tuples(*[st.sampled_from(CELL_VALUES)] * width), max_size=8),
    st.lists(st.tuples(*[st.sampled_from(CELL_VALUES + (7.0, float("nan")))] * width),
             min_size=1, max_size=12),
).map(lambda pair: (width,) + pair)))
def test_find_rows_equals_a_brute_force_lookup(case):
    """Keys are distinct by ``==`` (a grouping's rows); queries repeat, miss,
    hold NaN or -0.0 against a key's 0.0, and may have no columns at all."""
    width, key_rows, query_rows = case
    keys = _group_rows(np.array(key_rows, dtype=float).reshape(len(key_rows), width))[0]
    rows = np.array(query_rows, dtype=float).reshape(len(query_rows), width)
    want = [next((i for i, key in enumerate(keys) if (key == row).all()), -1) for row in rows]
    assert find_rows(keys, rows).tolist() == want


def hexes(array):
    return [float(v).hex() for v in np.ravel(array)]


def groupings(law):
    """Every ``cells`` grouping of the law's roles, each role order included."""
    roles = sorted({c.role for c in law.schema.columns})
    return [combo for k in range(1, len(roles) + 1) for combo in itertools.permutations(roles, k)]


SWEEP_SCHEMAS = tuple(dict.fromkeys(schema for _, schema in SWEEP_PLAN))


@BOUNDED
@given(st.integers(0, 2**32 - 1), st.sampled_from(SWEEP_SCHEMAS))
def test_a_contaminant_equals_the_law_built_on_its_base_atoms(seed, schema):
    rng = np.random.default_rng(seed)
    base = random_law(rng, schema)
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    drawn = contaminant_law(rng, base)
    probs = twin.dirichlet(np.ones(base.n_atoms))
    probs = 0.9 * probs + 0.1 / base.n_atoms
    built = DiscreteDistribution(base.schema, base.values, probs / probs.sum())
    assert rng.bit_generator.state == twin.bit_generator.state
    assert hexes(drawn.values) == hexes(built.values)
    assert hexes(drawn.probs) == hexes(built.probs)
    for roles in groupings(base):
        (got_keys, got_cell), (want_keys, want_cell) = drawn.cells(*roles), built.cells(*roles)
        assert hexes(got_keys) == hexes(want_keys) and got_keys.shape == want_keys.shape
        assert got_cell.tolist() == want_cell.tolist()


def grouped_path(base, cont):
    """A path's union law and contaminant probabilities by grouping both
    supports' atoms, base first, as for contaminants with other atoms."""
    values, cell = _group_rows(np.concatenate([base.values, cont.values]))
    k, size = base.n_atoms, len(values)
    union = DiscreteDistribution(
        base.schema, values, np.bincount(cell[:k], weights=base.probs, minlength=size))
    return union, np.bincount(cell[k:], weights=cont.probs, minlength=size)


@BOUNDED
@given(raw_laws(), st.lists(st.integers(1, 3), min_size=10, max_size=10))
def test_a_same_support_path_equals_the_grouped_path(raw, weights):
    """Contaminants on the base's atoms in the base's order: one that shares
    the support, one built afresh from them, and one whose zeros are -0.0."""
    schema, rows, probs = raw
    base = DiscreteDistribution(schema, rows, probs)
    q = np.array(weights[:base.n_atoms], dtype=float)
    q /= q.sum()
    signed = np.where(base.values == 0.0, -0.0, base.values)
    for cont in (base._reweighted(q.copy()), DiscreteDistribution(schema, base.values, q),
                 DiscreteDistribution(schema, signed, q)):
        path = MixturePath(base, cont)
        union, cont_probs = grouped_path(base, cont)
        assert path.union is base
        assert hexes(path.union.values) == hexes(union.values)
        assert hexes(path.union.probs) == hexes(union.probs)
        assert hexes(path.contaminant_probs) == hexes(cont_probs)


def test_a_t1_contaminant_and_its_path_group_nothing(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return _group_rows(rows)

    rng = np.random.default_rng(7)
    base = random_law(rng, FULL_SCHEMA)
    monkeypatch.setattr(distributions, "_group_rows", counting)
    path = MixturePath(base, contaminant_law(rng, base))
    assert calls == []
    assert path.union is base
    MixturePath(base, random_law(rng, FULL_SCHEMA))
    assert calls  # a contaminant with other atoms is grouped with the base's


@pytest.mark.parametrize("entry", [name for name, _ in SWEEP_PLAN])
def test_role_columns_are_built_once_per_support(monkeypatch, entry):
    built = []
    from_matrix = ColumnSet.from_matrix

    def counting(schema, values):
        built.append(values.shape)
        return from_matrix(schema, values)

    monkeypatch.setattr(ColumnSet, "from_matrix", staticmethod(counting))
    rng = np.random.default_rng(11)
    schema = dict(SWEEP_PLAN)[entry]
    law = random_law(rng, schema)
    spec = CATALOG[entry.split(":")[0]](**_SWEEP_PARAMS.get(entry, lambda rng, law: {})(rng, law))
    verify_eif(spec, law)
    check_t1_identity(spec, law, contaminant_law(rng, law))
    assert built == [law.values.shape]
    cols = support_columns(law)
    for column in (cols.y, cols.x, cols.Z, cols.M):
        assert column is None or not column.flags.writeable
    assert support_columns(contaminant_law(rng, law)) is cols
