"""Exact integer linear algebra.

Smith normal form with tracked unimodular transforms, saturated kernels,
integer system solving, and the structure of finitely generated abelian
groups.  All arithmetic is done with Python's unbounded integers; the
intermediate entries of a Smith reduction overflow any fixed width even
for small inputs, so nothing here may ever be routed through floats or
fixed-size integer arrays.

Matrices are immutable and row-major.  Pivoting is deterministic
(smallest nonzero absolute value, first occurrence in row-major scan),
so the transforms U and V are reproducible between runs.

Callers that print a basis share one dense elimination, `_eliminate`,
which otherwise only reduces the residuals below.  It updates only the
transforms (of M = U S V) the caller reads:

- `snf`: all four, U, u_inv, V and v_inv;
- `kernel_basis` and `surjection_kernel_basis`: v_inv;
- `column_span_basis`: U;
- `free_cokernel`: U and u_inv.

Every other caller shares the sparse routine `_unit_pivots`, which
eliminates rows on unit pivots, each of which splits off an invariant
factor 1, and leaves the residual without a unit to `_eliminate`; over
F_p every nonzero entry is a unit, so nothing is left.  A pivot is a
row reduced to a single unit entry when there is one, which fills
nothing in, and otherwise the first shortest row with a unit; a column
index sends each pivot only to the rows holding its column.

- `smith_invariants` reads the rank and the invariant factors (for
  `rank`, `is_split_injective`, `cokernel_structure`,
  `kernel_rank_cokernel`, and over F_p the field Hom dimensions) and
  reduces the residual untracked.  Smith invariants are unique, so
  this agrees exactly with the dense route.
- `solve` and `solve_matrix` carry the right-hand sides through the
  same row operations, solve the residual with u_inv and v_inv
  tracked, and back-substitute through the kept pivot rows.  Whether a
  solution exists agrees with the dense route, and so does the
  solution whenever the columns are independent.  Mutation solves only
  for the class matrix of a cluster that arrives alone
  (`cluster._class_matrix`), whose one solution gives both its exchange
  matrix and its c-vectors; exchange graphs carry their extended
  exchange matrices and solve nothing for them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NoSolution
from .memo import hash_once, memo


@hash_once
@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix; zero rows or columns are allowed."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), cols, rows)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def column(vector: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows([[int(x)] for x in vector], cols=1)

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def transpose(self) -> "IntMatrix":
        return _matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        other_t = other.transpose().entries
        return _matrix(self.rows, other.cols,
                      tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in other_t)
                            for row in self.entries))

    def mul_vec(self, vector: Sequence[int]) -> tuple:
        if len(vector) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vector)) for row in self.entries)

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        return _matrix(self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)))

    def neg(self) -> "IntMatrix":
        return _matrix(self.rows, self.cols,
                      tuple(tuple(-a for a in row) for row in self.entries))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("row mismatch in hstack")
        return _matrix(self.rows, self.cols + other.cols,
                      tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("column mismatch in vstack")
        return _matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> "IntMatrix":
        ri = tuple(row_indices)
        ci = tuple(col_indices)
        return _matrix(len(ri), len(ci),
                      tuple(tuple(self.entries[i][j] for j in ci) for i in ri))


def _matrix(rows: int, cols: int, entries: tuple) -> IntMatrix:
    """An IntMatrix built inside this module, whose shape holds by
    construction, without the shape check of the public constructor."""
    m = object.__new__(IntMatrix)
    m.__dict__.update(rows=rows, cols=cols, entries=entries)
    return m


def block_diag(matrices: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(m.rows for m in matrices)
    cols = sum(m.cols for m in matrices)
    data = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in matrices:
        for i in range(m.rows):
            for j in range(m.cols):
                data[r0 + i][c0 + j] = m.entries[i][j]
        r0 += m.rows
        c0 += m.cols
    return _wrap(data, cols)


@dataclass(frozen=True)
class SnfDecomposition:
    """M = U * S * V with U, V unimodular and S diagonal, d_i | d_{i+1}.

    u_inv and v_inv are the exact inverses, tracked during the reduction
    so that kernels and integer solving need no second factorization.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.entries[i][i] for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _pivot(s, t, rows, cols):
    """Position of the smallest nonzero |entry| in the trailing block."""
    best = None
    best_val = None
    for i in range(t, rows):
        row = s[i]
        for j in range(t, cols):
            v = abs(row[j])
            if v != 0 and (best_val is None or v < best_val):
                best = (i, j)
                best_val = v
                if v == 1:
                    return best
    return best


def _eliminate(m: IntMatrix, track=()) -> tuple:
    """Reduce m to Smith form, carrying only the transforms named in track.

    track holds any of "U", "u_inv", "V", "v_inv".  Every row operation E
    on the working matrix S is compensated by a column operation on U
    (and E itself on u_inv), every column operation likewise on V and
    v_inv, keeping M = U*S*V exact at every step.  Pivots and steps
    depend on S alone, so a tracked transform comes out the same whatever
    else is tracked.  Rows and columns before the current pivot are
    already zero in S, so S is only updated in the trailing block.

    Returns (diagonal, transforms): the min(rows, cols) diagonal entries
    of S, nonzero ones first, and a dict of each tracked transform as a
    list of row lists.
    """
    rows, cols = m.rows, m.cols
    s = [list(row) for row in m.entries]
    u = _eye(rows) if "U" in track else None
    ui = _eye(rows) if "u_inv" in track else None
    v = _eye(cols) if "V" in track else None
    vi = _eye(cols) if "v_inv" in track else None

    def row_swap(a, b):
        s[a], s[b] = s[b], s[a]
        if u is not None:
            for r in u:
                r[a], r[b] = r[b], r[a]
        if ui is not None:
            ui[a], ui[b] = ui[b], ui[a]

    def col_swap(a, b, lo):
        for r in s[lo:]:
            r[a], r[b] = r[b], r[a]
        if v is not None:
            v[a], v[b] = v[b], v[a]
        if vi is not None:
            for r in vi:
                r[a], r[b] = r[b], r[a]

    def row_add(dst, src, k, lo):
        # S: row dst += k * row src ; U: col src -= k * col dst ; u_inv: row dst += k * row src
        srow = s[src]
        drow = s[dst]
        for j in range(lo, cols):
            drow[j] += k * srow[j]
        if u is not None:
            for r in u:
                r[src] -= k * r[dst]
        if ui is not None:
            ui[dst] = [a + k * b for a, b in zip(ui[dst], ui[src])]

    def col_add(dst, src, k, lo):
        # S: col dst += k * col src ; V: row src -= k * row dst ; v_inv: col dst += k * col src
        for r in s[lo:]:
            r[dst] += k * r[src]
        if v is not None:
            v[src] = [a - k * b for a, b in zip(v[src], v[dst])]
        if vi is not None:
            for r in vi:
                r[dst] += k * r[src]

    def row_negate(a):
        s[a] = [-x for x in s[a]]
        if u is not None:
            for r in u:
                r[a] = -r[a]
        if ui is not None:
            ui[a] = [-x for x in ui[a]]

    def place_pivot(t, pos):
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j, t)
        if s[t][t] < 0:
            row_negate(t)

    diag_len = min(rows, cols)
    t = 0
    while t < diag_len:
        pos = _pivot(s, t, rows, cols)
        if pos is None:
            break
        place_pivot(t, pos)
        while True:
            pivot = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // pivot
                    if q:
                        row_add(i, t, -q, t)
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // pivot
                    if q:
                        col_add(j, t, -q, t)
                    if s[t][j]:
                        dirty = True
            if dirty:
                # a smaller remainder appeared; re-pivot on it
                place_pivot(t, _pivot(s, t, rows, cols))
                continue
            # row and column are clear; enforce divisibility of the block,
            # which a unit pivot divides already
            if pivot == 1:
                break
            bad = next((i for i in range(t + 1, rows)
                        if any(x % pivot for x in s[i][t + 1:])), None)
            if bad is None:
                break
            row_add(t, bad, 1, t)
        t += 1

    found = {"U": u, "u_inv": ui, "V": v, "v_inv": vi}
    return (tuple(s[i][i] for i in range(diag_len)),
            {name: found[name] for name in track})


def _eye(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _wrap(rows: list, cols: int) -> IntMatrix:
    """Row lists of plain ints as an IntMatrix, without coercing again."""
    return _matrix(len(rows), cols, tuple(map(tuple, rows)))


def _rank(diagonal: tuple) -> int:
    return sum(1 for d in diagonal if d)


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with all four transforms."""
    diagonal, t = _eliminate(m, ("U", "u_inv", "V", "v_inv"))
    rows, cols = m.rows, m.cols
    # off its diagonal the reduced matrix is zero
    s = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diagonal):
        s[i][i] = d
    return SnfDecomposition(
        U=_wrap(t["U"], rows),
        S=_wrap(s, cols),
        V=_wrap(t["V"], cols),
        u_inv=_wrap(t["u_inv"], rows),
        v_inv=_wrap(t["v_inv"], cols),
    )


def smith_invariants(rows: list, p: int = 0) -> tuple:
    """(rank, invariant factors other than 1) of a sparse matrix.

    Each row is a {column: entry} dict without zero entries; the dicts
    are reduced in place.  Over Z (p == 0) the factors form the chain
    d_1 | d_2 | ... of the Smith form; over F_p, p prime, there are none.
    `_unit_pivots` splits off the unit pivots, each an invariant factor
    1, and the residual, with no unit left, is reduced densely by
    `_eliminate`.
    """
    if p:
        rows = [{c: x % p for c, x in row.items() if x % p} for row in rows]
    r, live = _unit_pivots(rows, p)
    if not live:
        return r, ()
    cols = sorted({c for row in live for c in row})
    residual = _matrix(len(live), len(cols),
                       tuple(tuple(row.get(c, 0) for c in cols) for row in live))
    diagonal, _ = _eliminate(residual)
    return r + _rank(diagonal), tuple(d for d in diagonal if d > 1)


def _unit_pivots(rows: list, p: int, kept: list | None = None) -> tuple:
    """(number of unit pivots, rows left without a unit) of sparse rows.

    Rows are {column: entry} dicts without zero entries, reduced in
    place by row operations.  While some entry is a unit (+-1 over Z,
    any nonzero over F_p), it clears its column by row operations; its
    row and column then carry nothing else of the Smith form, so they
    are dropped.  A column -> rows index, extended on fill-in, sends
    each pivot only to the rows that hold its column.  Pivots come from
    a stack of rows that are, or have shrunk to, a single unit entry,
    which fill nothing in; only when it is empty does
    `_shortest_unit_row` take the first shortest row with a unit, off a
    heap of (length, position) entries to which every changed row is
    pushed again, so a system with many such pivots costs no scan of
    every row per pivot.

    With kept a list, each pivot taken from a longer row is appended to
    it as (column, rest): the row scaled to a pivot 1, without the pivot
    entry, as it stood when it cleared its column.  A single unit entry
    is not kept, as its equation sets its column's unknown to 0.
    """
    # column -> positions of the rows that held it when they were listed;
    # a row that has lost the entry since is passed over when it is cleared
    holders = defaultdict(list)
    singles = []  # rows that were a single unit entry when pushed
    for i, row in enumerate(rows):
        for c in row:
            holders[c].append(i)
        if len(row) == 1 and (p or abs(*row.values()) == 1):
            singles.append(row)
    r = 0
    # (length, position) of rows, built at the first search; every row
    # changed since is pushed again, unless it is empty or a single unit
    queue = None
    while True:
        while singles:
            row = singles.pop()
            if len(row) == 1 and (p or abs(*row.values()) == 1):
                # a single unit clears its column and fills nothing in
                col, _ = row.popitem()
                for i in holders.pop(col):
                    other = rows[i]
                    if other.pop(col, 0):
                        if len(other) == 1 and (p or abs(*other.values()) == 1):
                            singles.append(other)
                        elif other and queue is not None:
                            heappush(queue, (len(other), i))
                r += 1
        if queue is None:
            queue = [(len(row), i) for i, row in enumerate(rows) if row]
            if not queue:
                return r, []
            heapify(queue)
        found = _shortest_unit_row(rows, p, queue)
        if found is None:
            return r, [row for row in rows if row]
        pivot_row, col = found
        x = pivot_row.pop(col)
        # scale the pivot to 1, so row -= a * pivot_row clears a
        inv = pow(x, -1, p) if p else x
        if inv != 1:
            for c in pivot_row:
                pivot_row[c] = pivot_row[c] * inv % p if p else -pivot_row[c]
        for i in holders.pop(col):
            row = rows[i]
            a = row.pop(col, 0)
            if not a:
                continue
            for c, y in pivot_row.items():
                v = row.get(c, 0) - a * y
                if p:
                    v %= p
                if v:
                    if c not in row:
                        holders[c].append(i)
                    row[c] = v
                else:
                    del row[c]
            if len(row) == 1 and (p or abs(*row.values()) == 1):
                singles.append(row)
            elif row:
                heappush(queue, (len(row), i))
        if kept is not None:
            kept.append((col, pivot_row.copy()))
        pivot_row.clear()
        r += 1


def _shortest_unit_row(rows: list, p: int, queue: list) -> tuple | None:
    """(row, column) of the first unit in the first shortest row that
    holds one, or None when no row does.

    queue is a heap of (length, position in rows) holding an entry with
    the current length of every row that can hold a unit; an entry whose
    length is stale, or whose row holds no unit, is dropped, as its row
    is pushed again when it next changes.
    """
    while queue:
        length, i = heappop(queue)
        row = rows[i]
        if len(row) == length:
            for c, x in row.items():
                if p or x == 1 or x == -1:
                    return row, c
    return None


def _sparse(m: IntMatrix) -> list:
    return [{c: x for c, x in enumerate(row) if x} for row in m.entries]


def rank(m: IntMatrix) -> int:
    return smith_invariants(_sparse(m))[0]


def is_split_injective(m: IntMatrix) -> bool:
    """Whether m is injective with saturated image, i.e. has a left inverse.

    Exactly when every Smith invariant factor is 1 and the rank is the
    column count; a square m is then unimodular.
    """
    r, torsion = smith_invariants(_sparse(m))
    return r == m.cols and not torsion


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the full kernel lattice of m.

    The kernel of an integer matrix is automatically saturated: the
    returned columns extend to a basis of Z^cols.  Each basis vector is
    sign-normalized so its first nonzero entry is positive.  These are
    the trailing columns of v_inv, the only transform tracked.
    """
    diagonal, t = _eliminate(m, ("v_inv",))
    return _kernel_columns(m, _rank(diagonal), t["v_inv"])


def surjection_kernel_basis(m: IntMatrix) -> IntMatrix | None:
    """kernel_basis(m) when m maps onto Z^rows, None otherwise, from the
    one elimination: m is onto exactly when its rank is the row count and
    every invariant factor is 1."""
    diagonal, t = _eliminate(m, ("v_inv",))
    r = _rank(diagonal)
    if r < m.rows or any(d != 1 and d != -1 for d in diagonal[:r]):
        return None
    return _kernel_columns(m, r, t["v_inv"])


def _kernel_columns(m: IntMatrix, r: int, vi: list) -> IntMatrix:
    """The trailing columns of v_inv past the rank r, sign-normalized."""
    signs = []
    for j in range(r, m.cols):
        lead = next((row[j] for row in vi if row[j]), 0)
        signs.append(-1 if lead < 0 else 1)
    return _matrix(m.cols, len(signs),
                  tuple(tuple(x if sg > 0 else -x for x, sg in zip(row[r:], signs))
                        for row in vi))


def solve(m: IntMatrix, b: Sequence[int]) -> tuple:
    """Some integer solution x of m x = b, or NoSolution."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side has wrong length")
    return solve_matrix(m, IntMatrix.column(b)).col(0)


def solve_matrix(m: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Integer solution X of m X = b (columnwise), or NoSolution."""
    if b.rows != m.rows:
        raise DimensionMismatch("right-hand side has wrong row count")
    x = _solve(m, b)
    if x is None:
        raise NoSolution("the system is not solvable over Z")
    return x


def _solve(m: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """X with m X = b, or None when there is none, every column of b in
    one pass.

    The rows of m carry those of b as extra entries in the negative
    columns -1, -2, ..., doubled: twice an integer is never a unit, so
    `_unit_pivots` never pivots on a right-hand side, and its row
    operations carry b along.  The unit-free residual is solved by
    `_eliminate` with u_inv and v_inv tracked, then each kept pivot row
    is solved for its column, last pivot first; an unknown that no
    pivot or residual column determines is 0.
    """
    k = b.cols
    rows = []
    for row, rhs in zip(m.entries, b.entries):
        entries = {c: a for c, a in enumerate(row) if a}
        entries.update((-1 - j, 2 * a) for j, a in enumerate(rhs) if a)
        rows.append(entries)
    pivots = []
    live = _unit_pivots(rows, 0, pivots)[1]
    x = [[0] * k for _ in range(m.cols)]
    if live:
        cols = sorted({c for row in live for c in row if c >= 0})
        residual = _matrix(len(live), len(cols),
                           tuple(tuple(row.get(c, 0) for c in cols) for row in live))
        rhs = _matrix(len(live), k,
                      tuple(tuple(row.get(-1 - j, 0) // 2 for j in range(k)) for row in live))
        try:
            y = _solve_reduced(residual, _eliminate(residual, ("u_inv", "v_inv")), rhs)
        except NoSolution:
            return None
        for c, values in zip(cols, y.entries):
            x[c] = values
    for col, rest in reversed(pivots):
        value = [0] * k
        for c, a in rest.items():
            if c < 0:
                value[-1 - c] += a // 2
            else:
                value = [v - a * w for v, w in zip(value, x[c])]
        x[col] = value
    return _wrap(x, k)


def _solve_reduced(m: IntMatrix, reduced: tuple, b: IntMatrix) -> IntMatrix:
    """Integer solution X of m X = b, or NoSolution, from the result of
    _eliminate(m, ("u_inv", "v_inv")): with m = U S V, X = v_inv S^+ u_inv b."""
    diag, t = reduced
    r = _rank(diag)
    c = _wrap(t["u_inv"], m.rows).mul(b)
    ys = []
    for k in range(b.cols):
        y = [0] * m.cols
        for i in range(m.rows):
            ci = c.entries[i][k]
            if i < r:
                q, rem = divmod(ci, diag[i])
                if rem:
                    raise NoSolution(f"column {k} is not solvable over Z")
                y[i] = q
            elif ci:
                raise NoSolution(f"column {k} is inconsistent")
        ys.append(y)
    x = _matrix(m.cols, b.cols, tuple(tuple(ys[k][i] for k in range(b.cols)) for i in range(m.cols)))
    return _wrap(t["v_inv"], m.cols).mul(x)


def column_span_basis(m: IntMatrix) -> IntMatrix:
    """A basis (as columns) of the subgroup of Z^rows spanned by the columns.

    Column t is d_t times column t of U, the only transform tracked.
    """
    diag, t = _eliminate(m, ("U",))
    u = t["U"]
    r = _rank(diag)
    return _matrix(m.rows, r, tuple(tuple(d * x for d, x in zip(diag[:r], row)) for row in u))


def free_cokernel(m: IntMatrix) -> tuple:
    """(proj, section) for the free part of Z^rows / (column span of m).

    proj (rows - r by rows) maps Z^rows onto Z^(rows - r) and kills the
    saturation of the column span; section (rows by rows - r) is a right
    inverse of proj.  They are the trailing rows of u_inv and the
    trailing columns of U, the only transforms tracked.
    """
    diag, t = _eliminate(m, ("U", "u_inv"))
    rows = m.rows
    r = _rank(diag)
    proj = _matrix(rows - r, rows, tuple(map(tuple, t["u_inv"][r:])))
    section = _matrix(rows, rows - r, tuple(tuple(row[r:]) for row in t["U"]))
    return proj, section


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group, Z^free_rank + Z/d_1 + ... + Z/d_k.

    The torsion list is the chain of invariant factors d_1 | d_2 | ...,
    every d_i >= 2, which makes the representation unique per
    isomorphism class.

    >>> str(FinAbGroup(1, (2,)))
    'Z^1 + Z/2'
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
            if d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return group_from_factors(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@memo
def free_group(rank: int) -> FinAbGroup:
    """Z^rank, one value per rank: the Hom and Ext^1 groups between
    lattices are nearly all free, and share these values."""
    return FinAbGroup(rank)


def group_from_factors(free_rank: int, factors: Iterable[int]) -> FinAbGroup:
    """Normalize arbitrary cyclic orders into an invariant factor chain."""
    from math import gcd

    pending = [abs(d) for d in factors if abs(d) != 1]
    free_rank += sum(1 for d in pending if d == 0)
    pending = [d for d in pending if d != 0]
    chain: list = []
    for d in pending:
        # fold d into the chain, keeping divisibility
        for i in range(len(chain)):
            g = gcd(chain[i], d)
            lcm = chain[i] // g * d
            chain[i], d = g, lcm
            if d == 1:
                break
        if d > 1:
            chain.append(d)
    chain = [d for d in chain if d > 1]
    chain.sort()
    return FinAbGroup(free_rank, tuple(chain))


def cokernel_structure(m: IntMatrix) -> FinAbGroup:
    """Structure of Z^rows / (column span of m)."""
    return kernel_rank_cokernel(_sparse(m), m.cols)[1]


def kernel_rank_cokernel(rows: list, cols: int) -> tuple:
    """(rank of the kernel lattice, structure of the cokernel), one reduction,
    of the matrix with `cols` columns and the sparse `rows` of
    `smith_invariants`, which are reduced in place."""
    r, torsion = smith_invariants(rows)
    free = len(rows) - r
    return cols - r, FinAbGroup(free, torsion) if torsion else free_group(free)


def subquotient_structure(span: IntMatrix, relations: IntMatrix) -> FinAbGroup:
    """Structure of (column span of `span`) / (column span of `relations`).

    Requires the relation columns to lie in the span; raises NoSolution
    otherwise, which always indicates a logic error in the caller.
    """
    if relations.cols == 0:
        coeffs = IntMatrix.zero(span.cols, 0)
    else:
        coeffs = solve_matrix(span, relations)
    rels = coeffs.hstack(kernel_basis(span))
    return cokernel_structure(rels)


def rref_mod_p(rows, p: int) -> tuple:
    """Reduced row echelon form of integer rows over F_p, p prime.

    Returns (rows, pivots): the reduced rows, entries in 0..p-1, and a
    map from each pivot column to the row holding its leading one.
    """
    work = [[x % p for x in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(len(work[0]) if work else 0):
        if r == len(work):
            break
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots[c] = r
        r += 1
    return work, pivots
