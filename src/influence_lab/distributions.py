"""Observation schemas, datasets, finite-support laws, and mixture paths.

Everything in this module is immutable and pure.  A schema declares, for
each column, a role (outcome, exposure, covariate, mediator) and a kind
(continuous, binary, discrete); roles are never inferred from data.  A
``DiscreteDistribution`` is an explicit finite-support law used by the
verification oracle: a validated array of distinct atoms plus a probability
vector.  ``MixturePath`` represents the line segment (1 - t) * base + t *
contaminant, the paths along which functionals are differentiated; every
law on a path shares one union support.  ``mixture_probs`` is the one
builder of path probabilities, for many t and many contaminants at once;
``mixture_at`` is its one-law case.  Atoms are grouped into cells by
one primitive, ``_group_rows`` (a stable lexicographic sort of the rows),
so a cell total is a weighted ``np.bincount`` (``cell_sums``, for one row
of weights or many); ``find_rows``, the lookup of rows among distinct keys,
is its case of keys followed by queries.  What derives from the support
alone, its groupings and its role columns, belongs to the support: it is
computed once, in a memo that every law on that support shares.  A dataset
keeps its role columns in the same kind of memo (``derived``).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CsvParseError, SchemaError, ValidationError

ROLES = ("outcome", "exposure", "covariate", "mediator")
KINDS = ("continuous", "binary", "discrete")

PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Column:
    """Declared name, role, and kind of one observation coordinate."""

    name: str
    role: str
    kind: str

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.role not in ROLES:
            raise SchemaError(
                f"column {self.name!r}: unknown role {self.role!r}; expected one of {ROLES}"
            )
        if self.kind not in KINDS:
            raise SchemaError(
                f"column {self.name!r}: unknown kind {self.kind!r}; expected one of {KINDS}"
            )


@dataclass(frozen=True)
class Schema:
    """Ordered collection of columns with unique names.

    At most one outcome and one exposure column are allowed; covariates and
    mediators may repeat.  Index helpers return positions into the value
    tuples of observations that use this schema.
    """

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema must declare at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        for role in ("outcome", "exposure"):
            if sum(c.role == role for c in self.columns) > 1:
                raise SchemaError(f"schema declares more than one {role} column")
        roles = {role: tuple(i for i, c in enumerate(self.columns) if c.role == role)
                 for role in ROLES}
        object.__setattr__(self, "_roles", roles)

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column named {name!r} in schema {self.names}")

    def indices_with_role(self, role: str) -> tuple[int, ...]:
        return self._roles.get(role, ())

    def sole_index(self, role: str) -> int:
        idx = self.indices_with_role(role)
        if len(idx) != 1:
            raise SchemaError(f"schema has {len(idx)} {role} columns; exactly one required")
        return idx[0]

    def validate_values(self, values: Sequence[float]) -> tuple[float, ...]:
        """Check one row against column kinds and return it as a float tuple."""
        return tuple(_checked_rows(self, [values], "row")[0].tolist())


def _checked_rows(schema: Schema, values, what: str) -> np.ndarray:
    """Rows as an (n, arity) float array, checked against the column kinds."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != schema.arity:
        raise SchemaError(
            f"{what} values must have shape (n, {schema.arity}); got {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise SchemaError(f"{what} must contain at least one row")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} contains non-finite values")
    for j, col in enumerate(schema.columns):
        colvals = arr[:, j]
        if col.kind == "binary" and not np.all((colvals == 0.0) | (colvals == 1.0)):
            raise SchemaError(f"column {col.name!r} is binary but has other values")
        if col.kind == "discrete" and not np.all(colvals == np.round(colvals)):
            raise SchemaError(f"column {col.name!r} is discrete but has non-integer values")
    return arr


@dataclass(frozen=True)
class Observation:
    """A single data point: one float per schema column."""

    values: tuple[float, ...]
    schema: Schema

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", self.schema.validate_values(self.values))

    def value_of(self, name: str) -> float:
        return self.values[self.schema.index_of(name)]


class _RowMemo:
    """The memo of values computed from an object's rows alone."""

    _memo: dict

    def derived(self, key, build: Callable[[], object]):
        """The value ``build()`` computes from the rows alone, made once
        under ``key`` and kept with them."""
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = build()
        return found


class Dataset(_RowMemo):
    """Immutable n-row collection of observations sharing one schema.

    Rows are stored as a read-only float array of shape (n, arity); the
    per-row ``Observation`` view is materialized on demand.  The memo of
    ``derived`` holds the role columns (``estimands.support_columns``), so
    every estimator run on the dataset reads one set.
    """

    def __init__(self, schema: Schema, values: np.ndarray | Sequence[Sequence[float]]):
        arr = _checked_rows(schema, values, "dataset")
        arr = arr.copy()
        arr.setflags(write=False)
        self._schema = schema
        self._values = arr
        self._memo: dict = {}

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    def row(self, i: int) -> Observation:
        return Observation(tuple(self._values[i]), self._schema)

    def observations(self) -> Iterator[Observation]:
        for i in range(self.n):
            yield self.row(i)

    def column(self, name: str) -> np.ndarray:
        return self._values[:, self._schema.index_of(name)]


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping primitive: the distinct rows of ``rows`` in order of first
    occurrence, and for each row the index of its distinct row.  A stable
    lexicographic sort puts equal rows (by ``==``, so -0.0 and 0.0 are equal)
    next to each other in their original order, so each run of equal rows
    starts at its first occurrence."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    run = np.cumsum(starts) - 1  # run of each sorted row
    first = order[starts]  # first occurrence of each run
    by_first = np.argsort(first)
    rank = np.empty_like(first)
    rank[by_first] = np.arange(first.size)
    cell = np.empty_like(order)
    cell[order] = rank[run]
    return rows[first[by_first]], cell


def find_rows(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each of ``rows`` among the distinct rows ``keys``; -1 where a
    row is not among them.  The grouping of the keys followed by the rows:
    the keys are distinct, so key i is cell i, and a row in a later cell
    matches no key.  Rows compare by ``==``, so -0.0 matches 0.0, NaN
    matches nothing, and rows without columns all match the one key."""
    cell = _group_rows(np.concatenate([keys, rows]))[1][len(keys):]
    return np.where(cell < len(keys), cell, -1)


def cell_sums(cell: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Total of ``weights`` within each cell, along the last axis.  Several
    rows of weights are one weighted ``np.bincount`` on cell ids offset by
    row, which adds each row's terms in atom order, as a bincount of that
    row alone does, so every row has the bits of its own sums."""
    rows = weights.reshape(-1, weights.shape[-1])
    if len(rows) == 1:
        sums = np.bincount(cell, weights=rows[0])
    else:
        n = int(cell.max()) + 1
        ids = (cell + n * np.arange(len(rows))[:, None]).ravel()
        sums = np.bincount(ids, weights=rows.ravel(), minlength=n * len(rows))
    return sums.reshape(weights.shape[:-1] + (-1,))


class DiscreteDistribution(_RowMemo):
    """Finite-support probability law: a support array of distinct atoms,
    checked against the schema once, plus a probability vector.

    Duplicate support points (exact float equality of the whole tuple) are
    merged by summing their probabilities; atoms keep the order of their
    first occurrence.  Probabilities must be nonnegative and sum to one
    within ``PROB_SUM_TOL``; they are stored as given, never renormalized.
    The support memo holds what ``derived`` computes from the support alone:
    the groupings made by ``cells`` and the atoms' role columns
    (``estimands.support_columns``).  A law made by ``_reweighted`` (a law
    on a ``MixturePath``, a contaminant drawn on its base's atoms) shares
    its support, and with it the memo.
    """

    def __init__(
        self,
        schema: Schema,
        support: Sequence[Sequence[float]],
        probs: Sequence[float],
    ):
        if len(support) != len(probs):
            raise SchemaError(
                f"support has {len(support)} atoms but {len(probs)} probabilities"
            )
        if len(support) == 0:
            raise SchemaError("discrete distribution needs at least one atom")
        values = _checked_rows(schema, support, "discrete distribution")
        p = np.array(probs, dtype=float)
        negative = np.flatnonzero(p < 0.0)
        if negative.size:
            i = negative[0]
            raise SchemaError(
                f"negative probability {float(p[i])!r} for atom {tuple(values[i].tolist())!r}"
            )
        values, cell = _group_rows(values)
        p = np.bincount(cell, weights=p)
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise SchemaError(f"probabilities sum to {total!r}, not 1")
        values.setflags(write=False)
        p.setflags(write=False)
        self._schema = schema
        self._values = values
        self._probs = p
        self._memo: dict = {}

    @classmethod
    def _on_atoms(cls, schema: Schema, atoms: np.ndarray, probs: np.ndarray,
                  memo: dict) -> "DiscreteDistribution":
        """The law with ``probs`` on ``atoms``, distinct rows already checked
        against ``schema``, and the support memo ``memo``: nothing is
        validated or grouped again."""
        law = object.__new__(cls)
        atoms.setflags(write=False)
        probs.setflags(write=False)
        law._schema, law._values, law._probs, law._memo = schema, atoms, probs, memo
        return law

    def _reweighted(self, probs: np.ndarray) -> "DiscreteDistribution":
        """The law with ``probs`` on this law's support and its memo."""
        return self._on_atoms(self._schema, self._values, probs, self._memo)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def support(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self._values.tolist()))

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def values(self) -> np.ndarray:
        """Support atoms stacked as a (k, arity) float array."""
        return self._values

    @property
    def n_atoms(self) -> int:
        return self._values.shape[0]

    def cells(self, *roles: str) -> tuple[np.ndarray, np.ndarray]:
        """Group the atoms by their values in the columns of ``roles``: the
        distinct value rows (columns by ``roles``, then schema order; rows in
        order of first occurrence) and each atom's row index, its cell."""
        def group():
            columns = [i for role in roles for i in self._schema.indices_with_role(role)]
            return _group_rows(self._values[:, columns])

        return self.derived(roles, group)

    def prob_of(self, point: Sequence[float]) -> float:
        i = find_rows(self._values, np.asarray([point], dtype=float))[0]
        return float(self._probs[i]) if i >= 0 else 0.0

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        """Draw n i.i.d. rows from this law."""
        idx = rng.choice(self.n_atoms, size=n, p=self._probs / self._probs.sum())
        return Dataset(self._schema, self._values[idx])


@dataclass(frozen=True)
class MixturePath:
    """The segment of laws (1 - t) * base + t * contaminant, for t in [0, 1].

    Every law on the path lives on one union support: the base atoms, then
    the contaminant atoms the base lacks.  ``union`` is the base law on it
    and ``contaminant_probs`` the contaminant's probabilities there.  When
    the contaminant adds no atom (a point mass at a base atom, say) the union
    is the base itself, support memo included; when it has the base's atoms
    in the base's order (``contaminant_law``), nothing is grouped and its
    probabilities are ``contaminant_probs`` as they stand.  Otherwise the
    atoms of both laws are grouped once, and the union is built on the
    distinct rows of that grouping as they stand.
    """

    base: DiscreteDistribution
    contaminant: DiscreteDistribution
    union: DiscreteDistribution = field(init=False, repr=False, compare=False)
    contaminant_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        base, cont = self.base, self.contaminant
        if base.schema != cont.schema:
            raise SchemaError("mixture path requires base and contaminant to share a schema")
        if np.array_equal(base.values, cont.values):
            object.__setattr__(self, "union", base)
            object.__setattr__(self, "contaminant_probs", cont.probs)
            return
        # grouping both supports' atoms, base first, puts the base atoms at 0 .. k-1
        values, cell = _group_rows(np.concatenate([base.values, cont.values]))
        k, size = base.n_atoms, len(values)
        if size > k:
            base_probs = np.bincount(cell[:k], weights=base.probs, minlength=size)
            base = DiscreteDistribution._on_atoms(base.schema, values, base_probs, {})
        object.__setattr__(self, "union", base)
        q = np.bincount(cell[k:], weights=cont.probs, minlength=size)
        object.__setattr__(self, "contaminant_probs", q)


def mixture_probs(p: np.ndarray, q: np.ndarray, ts: Sequence[float]) -> np.ndarray:
    """The one place the path is written: for each t of ``ts`` and each row
    q_r of the (rows, atoms) matrix ``q``, the probabilities (1 - t) * p +
    t * q_r, as a (len(ts), rows, atoms) array."""
    t = np.asarray(ts, dtype=float)[:, None, None]
    outside = ~((0.0 <= t) & (t <= 1.0))
    if outside.any():
        raise SchemaError(f"mixture parameter t={float(t[outside][0])!r} outside [0, 1]")
    return (1.0 - t) * p + t * q


def mixture_at(path: MixturePath, t: float) -> DiscreteDistribution:
    """Law of the path at parameter t, on the path's union support: the
    one-row case of ``mixture_probs``."""
    probs = mixture_probs(path.union.probs, path.contaminant_probs[None, :], [t])
    return path.union._reweighted(probs[0, 0])


def point_mass(obs: Observation) -> DiscreteDistribution:
    """Degenerate law placing probability one on a single observation."""
    return DiscreteDistribution(obs.schema, [obs.values], [1.0])


def empirical(dataset: Dataset) -> DiscreteDistribution:
    """Empirical law of a dataset; duplicate rows merge with weight count/n."""
    n = dataset.n
    return DiscreteDistribution(
        dataset.schema, dataset.values, np.full(n, 1.0 / n)
    )


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with a seed numpy refuses (a negative
    or a non-integer one) reported as a ``ValidationError``."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}") from exc


def load_csv(path: str, roles: Mapping[str, tuple[str, str]]) -> Dataset:
    """Load a CSV file into a Dataset under a declared roles mapping.

    ``roles`` maps column names to (role, kind) pairs and fixes the schema
    column order.  Columns present in the file but absent from ``roles``
    are ignored, and so are blank rows; a ``roles`` column the header names
    more than once is refused.  Distinct failure modes raise
    ``CsvParseError`` naming the first offending row and column: missing
    header column, short row, non-numeric or non-finite cell, and binary or
    discrete violations.

    The data rows are first parsed by numpy's C reader, ``np.loadtxt``.  Its
    result is kept only when every row has the header's width, every
    selected cell passes the checks, and no warning was emitted; otherwise
    the rows are read by ``csv.reader``, the selected cells converted by
    one numpy call, which parses each string as ``float()`` does, and
    checked as arrays and, for ``_plain``, as one joined text.  Blank rows
    are looked for only when that fails, and the rows are walked cell by
    cell only to name a failure.
    """
    if not roles:
        raise CsvParseError(f"{path}: roles mapping is empty; no columns to load")
    try:
        columns = tuple(Column(name, role, kind) for name, (role, kind) in roles.items())
        schema = Schema(columns)
    except SchemaError as exc:
        raise CsvParseError(f"{path}: invalid roles mapping: {exc}") from exc
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        positions = []
        for col in schema.columns:
            if col.name not in header:
                raise CsvParseError(
                    f"{path}: required column {col.name!r} not found in header {header}"
                )
            if header.count(col.name) > 1:
                raise CsvParseError(
                    f"{path}: column {col.name!r} appears {header.count(col.name)} times "
                    "in the header"
                )
            positions.append(header.index(col.name))
        values = _loadtxt_values(path, schema, positions, len(header))
        if values is None:
            records = list(reader)
    if values is None:
        values = _bulk_values(schema, records, positions, len(header))
    if values is None:
        numbered = [(rownum, record) for rownum, record in enumerate(records, start=2)
                    if any(map(str.strip, record))]
        values = _bulk_values(schema, [record for _, record in numbered], positions, len(header))
        if values is None:
            raise _first_failure(path, schema, numbered, positions, len(header))
    if values.shape[0] == 0:
        raise CsvParseError(f"{path}: no data rows")
    return Dataset(schema, values)


def _loadtxt_values(path: str, schema: Schema, positions: list, width: int):
    """The selected cells of the data rows as parsed by ``np.loadtxt``, or
    None if it fails or warns (an empty file among others), a row is not
    ``width`` cells wide, or a cell fails ``_checked``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return _checked(schema, table[:, positions]) if table.shape[1] == width else None


def _bulk_values(schema: Schema, records: list, positions: list, width: int):
    """The selected cells of ``records`` as an (n, arity) float array, or None
    if a row is short, a cell does not parse or is not ``_plain``, or a cell
    is non-finite or a binary or discrete column holds another value."""
    if min(map(len, records), default=width) < width:
        return None
    cells = [r[p] for r in records for p in positions]
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        return None
    if not _plain("".join(cells)):
        return None
    return _checked(schema, values.reshape(len(records), schema.arity))


def _plain(text: str) -> bool:
    """Whether ``text``, cells that ``float()`` parses, is ASCII once its
    whitespace is gone and holds no ``_``, as ``np.loadtxt`` also requires;
    ``float()`` alone takes digit-group ``_`` and non-ASCII digits."""
    return "_" not in text and "".join(text.split()).isascii()


def _number(cell: str) -> float:
    """``float(cell)``, refusing a cell that is not ``_plain``."""
    if not _plain(cell):
        raise ValueError(f"not a plain ASCII number: {cell!r}")
    return float(cell)


def _checked(schema: Schema, values: np.ndarray):
    """``values``, or None if a cell is non-finite or a binary or discrete
    column holds another value."""
    bad = ~np.isfinite(values)
    for j, col in enumerate(schema.columns):
        if col.kind == "binary":
            bad[:, j] |= (values[:, j] != 0.0) & (values[:, j] != 1.0)
        elif col.kind == "discrete":
            bad[:, j] |= values[:, j] != np.floor(values[:, j])
    return None if bad.any() else values


def _first_failure(path: str, schema: Schema, numbered: list, positions: list,
                   width: int) -> CsvParseError:
    """The error for the first failing row, and in it the first failing cell,
    of the (row number, record) pairs: the array checks made one at a time."""
    for rownum, record in numbered:
        if len(record) < width:
            return CsvParseError(f"{path}: row {rownum} has {len(record)} cells; header has {width}")
        for col, pos in zip(schema.columns, positions):
            cell = record[pos].strip()
            where = f"{path}: row {rownum}, column {col.name!r}"
            try:
                value = _number(cell)
            except ValueError:
                return CsvParseError(f"{where}: cannot parse {cell!r} as a number")
            if col.kind == "binary" and value not in (0.0, 1.0):
                return CsvParseError(f"{where}: binary column has value {cell!r}")
            if not math.isfinite(value):
                return CsvParseError(f"{where}: non-finite value {cell!r}")
            if col.kind == "discrete" and value != int(value):
                return CsvParseError(f"{where}: discrete column has non-integer value {cell!r}")
    raise AssertionError("the array checks failed on rows that pass one at a time")
