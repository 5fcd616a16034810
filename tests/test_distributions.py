"""Schemas, datasets, finite-support laws, mixture paths, and CSV loading."""
import itertools
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influence_lab import (
    Column,
    CsvParseError,
    Dataset,
    DiscreteDistribution,
    MixturePath,
    Observation,
    Schema,
    SchemaError,
    empirical,
    load_csv,
    mixture_at,
    point_mass,
)
from influence_lab import distributions
from influence_lab.distributions import mixture_probs
from influence_lab.gateaux import (EXPOSURE_OUTCOME, FULL_SCHEMA, MEDIATION_SCHEMA, OUTCOME_ONLY,
                                   random_law)

YX = Schema(
    (Column("x", "exposure", "binary"), Column("y", "outcome", "continuous"))
)
Y_ONLY = Schema((Column("y", "outcome", "continuous"),))


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema((Column("y", "outcome", "continuous"),
                    Column("y", "covariate", "continuous")))

    def test_two_outcomes_rejected(self):
        with pytest.raises(SchemaError, match="more than one outcome"):
            Schema((Column("a", "outcome", "continuous"),
                    Column("b", "outcome", "continuous")))

    def test_unknown_role_and_kind_rejected(self):
        with pytest.raises(SchemaError, match="role"):
            Column("y", "response", "continuous")
        with pytest.raises(SchemaError, match="kind"):
            Column("y", "outcome", "categorical")

    def test_index_helpers(self):
        schema = Schema((
            Column("z1", "covariate", "continuous"),
            Column("z2", "covariate", "continuous"),
            Column("x", "exposure", "binary"),
            Column("y", "outcome", "continuous"),
        ))
        assert schema.indices_with_role("covariate") == (0, 1)
        assert schema.sole_index("outcome") == 3
        assert schema.index_of("x") == 2
        with pytest.raises(SchemaError):
            schema.index_of("missing")
        with pytest.raises(SchemaError, match="0 mediator"):
            schema.sole_index("mediator")

    def test_validate_values_enforces_kinds(self):
        with pytest.raises(SchemaError, match="binary"):
            YX.validate_values((0.5, 1.0))
        with pytest.raises(SchemaError, match="non-finite"):
            Y_ONLY.validate_values((float("nan"),))
        assert YX.validate_values((1, 2.5)) == (1.0, 2.5)


class TestDataset:
    def test_shape_and_kind_validation(self):
        with pytest.raises(SchemaError, match="shape"):
            Dataset(YX, np.zeros((3, 3)))
        with pytest.raises(SchemaError, match="binary"):
            Dataset(YX, [[2.0, 1.0]])

    def test_values_are_read_only(self):
        data = Dataset(YX, [[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            data.values[0, 0] = 9.0
        assert data.n == 2

    def test_row_and_column_access(self):
        data = Dataset(YX, [[0.0, 1.5], [1.0, 2.5]])
        assert data.row(1).value_of("y") == 2.5
        assert np.array_equal(data.column("x"), [0.0, 1.0])
        assert [obs.values for obs in data.observations()] == [(0.0, 1.5), (1.0, 2.5)]


class TestDiscreteDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(SchemaError, match="sum"):
            DiscreteDistribution(Y_ONLY, [[0.0], [1.0]], [0.5, 0.4])
        with pytest.raises(SchemaError, match="negative"):
            DiscreteDistribution(Y_ONLY, [[0.0], [1.0]], [-0.1, 1.1])

    def test_duplicate_atoms_merge(self):
        law = DiscreteDistribution(Y_ONLY, [[1.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
        assert law.n_atoms == 2
        assert law.prob_of((1.0,)) == pytest.approx(0.5)
        assert law.prob_of((3.0,)) == 0.0

    def test_sample_is_seeded_and_valid(self):
        law = DiscreteDistribution(Y_ONLY, [[-1.0], [4.0]], [0.25, 0.75])
        a = law.sample(100, np.random.default_rng(3))
        b = law.sample(100, np.random.default_rng(3))
        assert np.array_equal(a.values, b.values)
        assert set(np.unique(a.values)) <= {-1.0, 4.0}

    def test_empirical_weights(self):
        data = Dataset(Y_ONLY, [[1.0], [1.0], [2.0], [3.0]])
        law = empirical(data)
        assert law.prob_of((1.0,)) == pytest.approx(0.5)
        assert law.probs.sum() == pytest.approx(1.0)


class TestMixturePath:
    def test_endpoints_and_affine_probabilities(self):
        base = DiscreteDistribution(Y_ONLY, [[0.0], [1.0]], [0.6, 0.4])
        cont = DiscreteDistribution(Y_ONLY, [[1.0], [2.0]], [0.5, 0.5])
        path = MixturePath(base, cont)
        mid = mixture_at(path, 0.5)
        assert mid.prob_of((0.0,)) == pytest.approx(0.3)
        assert mid.prob_of((1.0,)) == pytest.approx(0.45)
        assert mid.prob_of((2.0,)) == pytest.approx(0.25)
        # endpoint laws keep the union support; base atoms get weight zero at t=1
        start = mixture_at(path, 0.0)
        assert [start.prob_of(a) for a in base.support] == [0.6, 0.4]
        end = mixture_at(path, 1.0)
        assert end.prob_of((0.0,)) == 0.0
        assert end.prob_of((2.0,)) == pytest.approx(0.5)

    def test_one_builder_for_many_steps_and_contaminants(self):
        base = DiscreteDistribution(Y_ONLY, [[0.0], [1.0], [2.0]], [0.5, 0.3, 0.2])
        q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
        ts = [0.0, 0.01, 0.5, 1.0]
        probs = mixture_probs(base.probs, q, ts)
        assert probs.shape == (len(ts), len(q), base.n_atoms)
        for r, row in enumerate(q):
            path = MixturePath(base, DiscreteDistribution(Y_ONLY, base.values, row))
            for s, t in enumerate(ts):
                assert np.array_equal(probs[s, r], mixture_at(path, t).probs)
        with pytest.raises(SchemaError, match="t=-0.5 outside"):
            mixture_probs(base.probs, q, [0.5, -0.5])

    def test_parameter_and_schema_validation(self):
        base = DiscreteDistribution(Y_ONLY, [[0.0]], [1.0])
        with pytest.raises(SchemaError, match="outside"):
            mixture_at(MixturePath(base, base), 1.5)
        other = DiscreteDistribution(YX, [[0.0, 0.0]], [1.0])
        with pytest.raises(SchemaError, match="schema"):
            MixturePath(base, other)

    @pytest.mark.parametrize("schema", [OUTCOME_ONLY, EXPOSURE_OUTCOME, FULL_SCHEMA,
                                        MEDIATION_SCHEMA])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_new_atoms_are_grouped_once(self, schema, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        base, cont = random_law(rng, schema), random_law(rng, schema)
        rows = np.concatenate([base.values, cont.values])
        values, cell = distributions._group_rows(rows)
        assert len(values) > base.n_atoms
        # the union as the public constructor builds it on the grouped rows
        probs = np.bincount(cell[: base.n_atoms], weights=base.probs, minlength=len(values))
        built = DiscreteDistribution(schema, values, probs)
        group, sizes = distributions._group_rows, []
        monkeypatch.setattr(distributions, "_group_rows",
                            lambda rows: sizes.append(len(rows)) or group(rows))
        union = MixturePath(base, cont).union
        assert sizes == [len(rows)]
        assert union.values.tobytes() == built.values.tobytes()
        assert union.probs.tobytes() == built.probs.tobytes()
        roles = sorted({c.role for c in schema.columns})
        for r in range(1, len(roles) + 1):
            for chosen in itertools.permutations(roles, r):
                for a, b in zip(union.cells(*chosen), built.cells(*chosen)):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_point_mass(self):
        obs = Observation((1.0, 2.0), YX)
        law = point_mass(obs)
        assert law.n_atoms == 1
        assert law.prob_of((1.0, 2.0)) == 1.0


class TestLoadCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_round_trip_with_extra_column_ignored(self, tmp_path):
        path = self._write(tmp_path, "id,y,x\n1,2.5,0\n2,3.5,1\n")
        data = load_csv(path, {"x": ("exposure", "binary"), "y": ("outcome", "continuous")})
        assert data.schema.names == ("x", "y")
        assert np.array_equal(data.values, [[0.0, 2.5], [1.0, 3.5]])

    def test_a_roles_column_named_twice_is_refused(self, tmp_path):
        path = self._write(tmp_path, "z,x,y,y\n0.5,0,1.0,2.0\n")
        roles = {"z": ("covariate", "continuous"), "x": ("exposure", "binary"),
                 "y": ("outcome", "continuous")}
        with pytest.raises(CsvParseError, match=r"column 'y' appears 2 times in the header$"):
            load_csv(path, roles)

    def test_a_repeated_column_outside_the_roles_is_ignored(self, tmp_path):
        path = self._write(tmp_path, "id,y,id,x\n1,2.5,7,0\n2,3.5,8,1\n")
        data = load_csv(path, {"x": ("exposure", "binary"), "y": ("outcome", "continuous")})
        assert np.array_equal(data.values, [[0.0, 2.5], [1.0, 3.5]])

    def test_missing_column_names_it(self, tmp_path):
        path = self._write(tmp_path, "y\n1.0\n")
        with pytest.raises(CsvParseError, match="'x' not found"):
            load_csv(path, {"x": ("exposure", "binary"), "y": ("outcome", "continuous")})

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = self._write(tmp_path, "y\n1.0\noops\n")
        with pytest.raises(CsvParseError, match="row 3"):
            load_csv(path, {"y": ("outcome", "continuous")})

    def test_binary_violation_is_a_parse_error(self, tmp_path):
        path = self._write(tmp_path, "x,y\n0.5,1.0\n")
        with pytest.raises(CsvParseError, match="binary"):
            load_csv(path, {"x": ("exposure", "binary"), "y": ("outcome", "continuous")})

    def test_empty_roles_rejected(self, tmp_path):
        path = self._write(tmp_path, "y\n1.0\n")
        with pytest.raises(CsvParseError, match="roles"):
            load_csv(path, {})

    XYD = {"x": ("exposure", "binary"), "y": ("outcome", "continuous"),
           "k": ("covariate", "discrete")}

    def test_blank_and_whitespace_only_rows_are_skipped(self, tmp_path):
        path = self._write(tmp_path, "x,y,k\n\n0,1.5,2\n  ,\t, \n \n1,2.5,3\n,,\n")
        data = load_csv(path, self.XYD)
        assert np.array_equal(data.values, [[0.0, 1.5, 2.0], [1.0, 2.5, 3.0]])

    def test_short_row_names_its_row_and_cell_counts(self, tmp_path):
        path = self._write(tmp_path, "x,y,k\n0,1.5,2\n\n1,2.5\n")
        with pytest.raises(CsvParseError, match=r"row 4 has 2 cells; header has 3$"):
            load_csv(path, self.XYD)

    def test_extra_cells_are_accepted(self, tmp_path):
        path = self._write(tmp_path, "x,y,k\n0,1.5,2,9,9\n1,2.5,3,oops\n")
        data = load_csv(path, self.XYD)
        assert np.array_equal(data.values, [[0.0, 1.5, 2.0], [1.0, 2.5, 3.0]])

    def test_padded_and_quoted_numbers_parse(self, tmp_path):
        path = self._write(tmp_path, 'x,y,k\n 1 ,"  -2.5e1 ","4"\n"0",\t.5\t,+7 \n')
        data = load_csv(path, self.XYD)
        assert np.array_equal(data.values, [[1.0, -25.0, 4.0], [0.0, 0.5, 7.0]])

    def test_discrete_violation_names_row_column_and_cell(self, tmp_path):
        path = self._write(tmp_path, "x,y,k\n0,1.5,2\n1,2.5, 3.25 \n1,oops,0.5\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, self.XYD)
        assert str(info.value) == (
            f"{path}: row 3, column 'k': discrete column has non-integer value '3.25'"
        )

    def test_first_offending_cell_in_row_order_is_named(self, tmp_path):
        # a binary violation in row 3 comes before a parse error in row 4 and a
        # short row 5, although the bad cells sit in different columns
        path = self._write(tmp_path, "x,y,k\n0,1.5,2\n0.5,2.5,7\n0,oops,1\n1,2\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 'x': binary column has value '0.5'"):
            load_csv(path, self.XYD)
        path = self._write(tmp_path, "x,y,k\n0,1.5,2\n0,oops,1.5\n1,2.5\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 'y': cannot parse 'oops'"):
            load_csv(path, self.XYD)

    def test_repr_written_values_read_back_as_float_of_each_cell(self, tmp_path):
        rng = np.random.default_rng(23)
        values = np.concatenate([
            rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, size=300),
            rng.standard_cauchy(size=300),
            [0.1, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        ])
        cells = [repr(float(v)) for v in values]
        path = self._write(tmp_path, "y\n" + "\n".join(cells) + "\n")
        data = load_csv(path, {"y": ("outcome", "continuous")})
        expected = np.array([float(cell) for cell in cells])
        assert data.values[:, 0].tobytes() == expected.tobytes()

    PROBLEMS = {"non-finite": "non-finite value {!r}", "unparsed": "cannot parse {!r} as a number"}

    # float() takes digit-group underscores and non-ASCII digits, which
    # np.loadtxt refuses; both readers refuse them
    @pytest.mark.parametrize("cell, column, problem", [
        ("nan", "k", "non-finite"), ("inf", "k", "non-finite"), ("-Infinity", "k", "non-finite"),
        ("NaN", "y", "non-finite"), ("1e400", "y", "non-finite"),
        ("1_000", "y", "unparsed"), ("1_0", "x", "unparsed"), ("\u0661", "k", "unparsed"),
        ("\u0663.5", "y", "unparsed"), ("\uff11", "x", "unparsed"), ("\u22121", "y", "unparsed"),
    ])
    def test_refused_cell_names_row_and_column(self, tmp_path, cell, column, problem):
        row = {"x": "1", "y": "2.5", "k": "3", column: f" {cell}"}
        path = self._write(tmp_path, f"x,y,k\n0,1.5,2\n{row['x']},{row['y']},{row['k']}\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path, self.XYD)
        assert str(info.value) == (
            f"{path}: row 3, column {column!r}: {self.PROBLEMS[problem].format(cell)}"
        )


# cells for the differential test of load_csv's two readers: numbers in the
# formats a writer may use, and what either reader might take differently
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(repr),
    st.integers(-5, 5).map(str),
)
_ODD_CELLS = st.sampled_from([
    "", " ", "\t", '"1"', '" 2.5 "', '"0"', "#", "#1", "1 #2", "nan", "NaN", "inf", "-inf",
    "1e400", "1_000", "\u0661", "\u0663.5", "0x10", "1d5", " 7 ", "+3", "-0", "0.5", "oops",
    "1e-320", "4.9e-324", ".5", "5.", "\u00a01",
])
_CELLS = st.one_of(_NUMBERS, _ODD_CELLS, st.sampled_from(["0", "1"]))
_VALID_ROW = st.tuples(st.sampled_from(["0", "1", "0.0", " 1 "]), _NUMBERS,
                       st.integers(-9, 9).map(str)).map(list)
_ROW = st.one_of(
    _VALID_ROW, _VALID_ROW, _VALID_ROW,
    _VALID_ROW.flatmap(lambda row: st.lists(_CELLS, max_size=2).map(lambda extra: row + extra)),
    st.lists(_CELLS, max_size=5),
)
_LINE = st.one_of(_ROW.map(",".join), _ROW.map(",".join), st.sampled_from(["", "  ", "\t", ",,"]))


def _read(path, roles):
    try:
        data = load_csv(path, roles)
    except Exception as exc:  # the readers must fail alike
        return type(exc).__name__, str(exc)
    return data.values.shape, data.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from(["x,y,k", "x,y,k,extra", "k,y,x", "y,x,k,,"]),
    lines=st.lists(_LINE, max_size=6),
    newline=st.sampled_from(["\n", "\r\n"]),
    last_newline=st.booleans(),
)
def test_load_csv_readers_agree(header, lines, newline, last_newline):
    """Every file the C reader's result is kept for loads the bits that the
    csv.reader path gives, and every other file fails or loads as before."""
    roles = TestLoadCsv.XYD
    text = newline.join([header] + lines) + (newline if last_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = _read(path, roles)
        with mock.patch.object(distributions, "_loadtxt_values", return_value=None):
            want = _read(path, roles)
    assert got == want
