import random

import pytest
from hypothesis import find, given, settings, strategies as st

from clusterforge import clear_caches, cluster, verify, zlinalg
from clusterforge.errors import DimensionMismatch, NoSolution
from clusterforge.quiver import Quiver
from clusterforge.zlinalg import (
    FinAbGroup,
    IntMatrix,
    _eliminate,
    _sparse,
    cokernel_structure,
    column_span_basis,
    free_cokernel,
    group_from_factors,
    is_split_injective,
    kernel_basis,
    rank,
    rref_mod_p,
    smith_invariants,
    snf,
    solve,
    solve_matrix,
    solve_with_rank,
    subquotient_structure,
)


def test_snf_identity():
    m = IntMatrix.identity(2)
    dec = snf(m)
    assert dec.S.entries == ((1, 0), (0, 1))


def test_snf_diag_2_3():
    dec = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)


def test_snf_hand_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(m)
    assert dec.diagonal == (2, 4)
    assert dec.U.mul(dec.S).mul(dec.V).entries == m.entries


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        dec = snf(IntMatrix.zero(rows, cols))
        assert dec.U.mul(dec.S).mul(dec.V).entries == IntMatrix.zero(rows, cols).entries


def test_cokernel_examples():
    assert cokernel_structure(IntMatrix.from_rows([[0]])) == FinAbGroup(1)
    assert cokernel_structure(IntMatrix.from_rows([[2]])) == FinAbGroup(0, (2,))
    assert cokernel_structure(IntMatrix.from_rows([[2, 0], [0, 3]])) == FinAbGroup(0, (6,))


def test_kernel_examples():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0
    assert kernel_basis(IntMatrix.from_rows([[1, 1]])).entries == ((1,), (-1,))
    assert kernel_basis(IntMatrix.from_rows([[2, 4]])).entries == ((2,), (-1,))


def test_solve_examples():
    assert solve(IntMatrix.from_rows([[2]]), (4,)) == (2,)
    with pytest.raises(NoSolution):
        solve(IntMatrix.from_rows([[2]]), (3,))
    m = IntMatrix.from_rows([[1, 2], [0, 0]])
    x = solve(m, (5, 0))
    assert m.mul_vec(x) == (5, 0)
    # the rank comes with the answer, also when there is none
    assert solve_with_rank(IntMatrix.from_rows([[2]]), (4,)) == (1, (2,))
    assert solve_with_rank(IntMatrix.from_rows([[2]]), (3,)) == (1, None)
    assert solve_with_rank(m, (5, 1)) == (1, None)
    r, x = solve_with_rank(m, (5, 0))
    assert r == 1 and m.mul_vec(x) == (5, 0)


def test_group_string():
    assert str(FinAbGroup(0)) == "0"
    assert str(FinAbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


def test_group_from_factors_normalizes():
    assert group_from_factors(0, [2, 3]) == FinAbGroup(0, (6,))
    assert group_from_factors(0, [4, 6]) == FinAbGroup(0, (2, 12))
    assert group_from_factors(1, [0, 1, 5]) == FinAbGroup(2, (5,))


def test_subquotient():
    span = IntMatrix.from_rows([[2, 0], [0, 3]])
    rels = IntMatrix.from_rows([[4], [3]])
    # span Z(2,0)+Z(0,3), quotient by (4,3): coefficients (2,1) -> Z
    assert subquotient_structure(span, rels) == FinAbGroup(1)


def test_from_rows_coerces_to_plain_int():
    m = IntMatrix.from_rows([[True, 2]])
    assert m.entries == ((1, 2),)
    assert all(type(x) is int for x in m.entries[0])


def test_public_constructors_check_shapes():
    with pytest.raises(DimensionMismatch):
        IntMatrix(-1, 0, ())
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 1, ((1,),))
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntMatrix.from_rows([[1, 2]], cols=3)


def test_built_matrices_equal_checked_ones():
    # products, transposes, stacks and elimination results skip the
    # shape check; they still compare and hash like checked values
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    built = (m.transpose(), m.mul(m), m.add(m), m.neg(), m.hstack(m), m.vstack(m),
             m.submatrix((0, 2), (1,)), kernel_basis(m), snf(m).S, column_span_basis(m),
             *free_cokernel(m))
    for b in built:
        checked = IntMatrix(b.rows, b.cols, b.entries)  # raises on a wrong shape
        assert b == checked and hash(b) == hash(checked)
        assert repr(b) == repr(checked)


# Shapes start at 0: hom_group builds 0-row and 0-column systems at
# vertices without generators.
matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda r: st.integers(min_value=0, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda rows: IntMatrix.from_rows(rows, cols=c))))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_reconstruction_property(m):
    dec = snf(m)
    assert dec.U.mul(dec.S).mul(dec.V).entries == m.entries
    assert dec.U.mul(dec.u_inv).entries == IntMatrix.identity(m.rows).entries
    assert dec.V.mul(dec.v_inv).entries == IntMatrix.identity(m.cols).entries
    diag = dec.diagonal
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_saturated_property(m):
    k = kernel_basis(m)
    assert m.mul(k).is_zero()
    if k.cols:
        assert all(d == 1 for d in snf(k).diagonal)
        assert snf(k).rank == k.cols


@settings(max_examples=40, deadline=None)
@given(matrices, st.sampled_from([2, 3, 5, 7]))
def test_cokernel_mod_p_dimension(m, p):
    g = cokernel_structure(m)
    expected = g.free_rank + sum(1 for d in g.torsion if d % p == 0)
    assert m.rows - smith_invariants(_sparse(m), p)[0] == expected


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_square_determinant_matches_invariants(rows):
    m = IntMatrix.from_rows(rows)
    dec = snf(m)
    det = (m.entries[0][0] * (m.entries[1][1] * m.entries[2][2] - m.entries[1][2] * m.entries[2][1])
           - m.entries[0][1] * (m.entries[1][0] * m.entries[2][2] - m.entries[1][2] * m.entries[2][0])
           + m.entries[0][2] * (m.entries[1][0] * m.entries[2][1] - m.entries[1][1] * m.entries[2][0]))
    prod = 1
    for d in dec.diagonal:
        prod *= d
    assert abs(det) == prod


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_column_span_basis_spans(m):
    basis = column_span_basis(m)
    # every original column solves over the basis, and conversely
    if basis.cols:
        solve_matrix(basis, m)
    else:
        assert m.is_zero()
    if m.cols and not m.is_zero():
        solve_matrix(m, basis)


# Sparse matrices with small entries, like the intertwining systems:
# eliminating on a unit pivot fills in other rows, and what is left
# without a unit needs the dense step.
sparse_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.integers(min_value=0, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3)), min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda rows: IntMatrix.from_rows(rows, cols=c))))


def _dense_calls(m):
    """The shapes smith_invariants hands to the dense _eliminate for m."""
    shapes = []
    inner = zlinalg._eliminate

    def counted(mat, track=()):
        shapes.append((mat.rows, mat.cols))
        return inner(mat, track)

    zlinalg._eliminate = counted
    try:
        smith_invariants(_sparse(m))
    finally:
        zlinalg._eliminate = inner
    return shapes


def test_unit_pivots_fill_in_and_leave_a_dense_residual():
    # pivoting on (0, 0) fills in (1, 1); the unit pivots then finish
    fill_in = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
    assert _dense_calls(fill_in) == []
    assert smith_invariants(_sparse(fill_in)) == (2, ())
    # one unit pivot, then a 2 x 2 residual with no unit left
    residual = IntMatrix.from_rows([[1, 2, 0], [2, 6, 4], [0, 6, 8]])
    assert _dense_calls(residual) == [(2, 2)]
    assert smith_invariants(_sparse(residual)) == (3, (2, 4)) == (3, snf(residual).diagonal[1:])
    # over F_p every nonzero entry is a unit, so nothing is left
    assert smith_invariants(_sparse(residual), 2) == (1, ())


def test_sparse_strategy_reaches_the_dense_residual():
    m = find(sparse_matrices, lambda m: _dense_calls(m) != [], settings=settings(database=None))
    assert smith_invariants(_sparse(m)) == (snf(m).rank, tuple(d for d in snf(m).diagonal if d > 1))


# Long sparse systems shaped like the intertwining matrices of path and
# tree quivers: each of 60 or more rows ties a column to one of the few
# before it, with mostly +-1 entries and a few +-2 and +-3.  A few
# single-entry anchor rows start chains of rows that shrink to a single
# unit, and a few chords between any two columns close cycles.
WEIGHTS = (1, -1) * 5 + (2, -2, 3, -3)


@st.composite
def long_sparse_systems(draw):
    n = draw(st.integers(min_value=61, max_value=80))
    tree = draw(st.booleans())
    back = draw(st.lists(st.integers(0, 3) if tree else st.just(0), min_size=n, max_size=n))
    w = draw(st.lists(st.sampled_from(WEIGHTS), min_size=2 * n, max_size=2 * n))
    rows = [{v: w[2 * v], max(0, v - 1 - back[v]): w[2 * v + 1]} for v in range(1, n)]
    anchors = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(WEIGHTS)),
                            max_size=3))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.sampled_from(WEIGHTS), st.sampled_from(WEIGHTS)),
                           max_size=3))
    rows += [{a: x} for a, x in anchors]
    rows += [{a: x, b: y} if a != b else {a: x + y} for a, b, x, y in chords if a != b or x + y]
    order = draw(st.permutations(range(len(rows))))
    return IntMatrix.from_rows([[rows[i].get(c, 0) for c in range(n)] for i in order], cols=n)


def _pivot_sources(m):
    """(pivots off the singleton stack, pivots off the fallback search,
    dense residual reductions) of smith_invariants over Z on m."""
    scanned, residual_ranks = [], []
    scan, dense = zlinalg._shortest_unit_row, zlinalg._eliminate

    def counted_scan(*args):
        found = scan(*args)
        if found is not None:
            scanned.append(found)
        return found

    def counted_dense(mat, track=()):
        diagonal, transforms = dense(mat, track)
        residual_ranks.append(sum(1 for d in diagonal if d))
        return diagonal, transforms

    zlinalg._shortest_unit_row, zlinalg._eliminate = counted_scan, counted_dense
    try:
        r, _ = smith_invariants(_sparse(m))
    finally:
        zlinalg._shortest_unit_row, zlinalg._eliminate = scan, dense
    return r - len(scanned) - sum(residual_ranks), len(scanned), len(residual_ranks)


def test_rows_shrunk_to_a_single_unit_pivot_off_the_stack():
    # a single unit pivots first and leaves the row under it a single unit
    assert _pivot_sources(IntMatrix.from_rows([[1, 0], [1, 1]])) == (2, 0, 0)
    # with no single unit the search takes the shortest row, and clearing
    # its column shrinks the other row to a single unit
    assert _pivot_sources(IntMatrix.from_rows([[1, 1, 1], [1, 1, 0]])) == (1, 1, 0)


@settings(max_examples=40, deadline=None)
@given(long_sparse_systems())
def test_unit_pivot_kernel_on_long_sparse_systems(m):
    assert m.rows >= 60
    dec = snf(m)
    assert smith_invariants(_sparse(m)) == (dec.rank, tuple(d for d in dec.diagonal if d > 1))
    for p in (2, 3, 5):
        assert smith_invariants(_sparse(m), p)[0] == len(rref_mod_p(m.entries, p)[1])


def test_long_sparse_systems_reach_every_pivot_source():
    reached = set()

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(long_sparse_systems())
    def record(m):
        stack, scanned, residuals = _pivot_sources(m)
        # more stack pivots than single-unit rows in m: some row shrank to one
        singles = sum(1 for row in _sparse(m) if len(row) == 1 and abs(*row.values()) == 1)
        reached.update(name for name, hit in (("shrunk row", stack > singles),
                                              ("fallback search", scanned),
                                              ("dense residual", residuals))
                       if hit)

    record()
    assert reached == {"shrunk row", "fallback search", "dense residual"}


@st.composite
def fallback_systems(draw):
    """Sparse systems of 40 to 70 rows of two to four entries, so that no
    row starts as a single unit and most pivots come off the search."""
    n = draw(st.integers(min_value=40, max_value=70))
    cols = draw(st.integers(min_value=30, max_value=60))
    rows = []
    for _ in range(n):
        k = draw(st.integers(min_value=2, max_value=4))
        picked = draw(st.lists(st.integers(0, cols - 1), min_size=k, max_size=k, unique=True))
        rows.append({c: draw(st.sampled_from(WEIGHTS)) for c in picked})
    return rows


def _heap_pivots_against_a_scan(rows, p):
    """Pivots that _unit_pivots takes off its heap on a copy of rows,
    checking at every search that the heap gives what a scan of the rows
    gives: the first unit in the first shortest row that holds one."""
    rows = [{c: x % p for c, x in row.items() if x % p} if p else dict(row) for row in rows]
    heaped = []
    search = zlinalg._shortest_unit_row

    def checked(rows, p, queue):
        scanned = None
        for row in rows:
            unit = next((c for c, x in row.items() if p or abs(x) == 1), None)
            if unit is not None and (scanned is None or len(row) < len(scanned[0])):
                scanned = row, unit
        found = search(rows, p, queue)
        if scanned is None:
            assert found is None
        else:
            assert found[0] is scanned[0] and found[1] == scanned[1]
            heaped.append(found[1])
        return found

    zlinalg._shortest_unit_row = checked
    try:
        zlinalg._unit_pivots(rows, p)
    finally:
        zlinalg._shortest_unit_row = search
    return heaped


@settings(max_examples=40, deadline=None)
@given(fallback_systems(), st.sampled_from((0, 0, 2, 3)))
def test_the_pivot_heap_takes_the_pivots_of_a_scan(rows, p):
    # the heap is an index of the rows: the same pivots in the same order
    # as a scan, so the same kept rows, rank and residual
    _heap_pivots_against_a_scan(rows, p)


def test_a_fallback_system_takes_its_pivots_off_the_heap():
    rng = random.Random(0)
    rows = [{c: rng.choice(WEIGHTS) for c in rng.sample(range(40), rng.randint(2, 4))}
            for _ in range(60)]
    assert len(_heap_pivots_against_a_scan(rows, 0)) >= 20


def test_euler_pairing_on_e6_makes_no_dense_untracked_reduction(monkeypatch):
    # every intertwining matrix of the E6 pool is eliminated on unit
    # pivots alone, so a silent fallback to the dense path shows here
    e6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
    pool = cluster.build_pool(e6, 12)
    clear_caches()
    untracked = []
    inner = zlinalg._eliminate

    def counted(mat, track=()):
        if not track:
            untracked.append((mat.rows, mat.cols))
        return inner(mat, track)

    monkeypatch.setattr(zlinalg, "_eliminate", counted)
    assert verify._euler_pairing(e6, pool.modules()).passed
    assert untracked == []


TRANSFORMS = ("U", "u_inv", "V", "v_inv")


@settings(max_examples=60, deadline=None)
@given(matrices, st.sets(st.sampled_from(TRANSFORMS)))
def test_tracked_transforms_match_full_snf(m, track):
    # the elimination's steps depend on S alone, so each tracked
    # transform equals the full decomposition's, whatever else is tracked
    dec = snf(m)
    diagonal, transforms = _eliminate(m, tuple(sorted(track)))
    assert diagonal == dec.diagonal
    assert set(transforms) == track
    for name, rows in transforms.items():
        assert tuple(map(tuple, rows)) == getattr(dec, name).entries


def _snf_solve_matrix(m, b):
    """solve_matrix written against the full decomposition."""
    dec = snf(m)
    r = dec.rank
    c = dec.u_inv.mul(b)
    y = [[0] * b.cols for _ in range(m.cols)]
    for k in range(b.cols):
        for i in range(m.rows):
            if i < r:
                q, rem = divmod(c.entries[i][k], dec.diagonal[i])
                if rem:
                    raise NoSolution("not solvable over Z")
                y[i][k] = q
            elif c.entries[i][k]:
                raise NoSolution("inconsistent")
    return dec.v_inv.mul(IntMatrix.from_rows(y, cols=b.cols))


@settings(max_examples=120, deadline=None)
@given(st.one_of(matrices, sparse_matrices))
def test_lean_paths_match_full_snf(m):
    dec = snf(m)
    r = dec.rank
    assert rank(m) == r
    assert smith_invariants(_sparse(m), 0)[0] == r
    for p in (2, 3, 5):
        assert smith_invariants(_sparse(m), p)[0] == len(rref_mod_p(m.entries, p)[1])
    assert cokernel_structure(m) == FinAbGroup(
        m.rows - r, tuple(d for d in dec.diagonal if d > 1))
    assert is_split_injective(m) == (r == m.cols and all(d == 1 for d in dec.diagonal))

    kernel_cols = []
    for j in range(r, m.cols):
        vec = dec.v_inv.col(j)
        if next((x for x in vec if x), 0) < 0:
            vec = tuple(-x for x in vec)
        kernel_cols.append(vec)
    expected = IntMatrix.from_rows([[c[i] for c in kernel_cols] for i in range(m.cols)],
                                   cols=len(kernel_cols))
    assert kernel_basis(m) == expected

    span = [[dec.diagonal[t] * dec.U.entries[i][t] for t in range(r)] for i in range(m.rows)]
    assert column_span_basis(m) == IntMatrix.from_rows(span, cols=r)

    proj, section = free_cokernel(m)
    assert proj == dec.u_inv.submatrix(range(r, m.rows), range(m.rows))
    assert section == dec.U.submatrix(range(m.rows), range(r, m.rows))


def _check_solves(m, b):
    """solve_matrix, solve_with_rank and solve against the dense reference.

    Rank and solvability are properties of m and b, so they must agree
    exactly; a solution must solve, and is the reference's exactly when
    the columns of m are independent, as it is then unique.
    """
    r = snf(m).rank
    try:
        want = _snf_solve_matrix(m, b)
    except NoSolution:
        want = None
        with pytest.raises(NoSolution):
            solve_matrix(m, b)
    else:
        x = solve_matrix(m, b)
        assert m.mul(x) == b
        if r == m.cols:
            assert x == want
    for j in range(b.cols):
        col = b.col(j)
        rank_j, x = solve_with_rank(m, col)
        assert rank_j == r
        if want is not None:
            assert solve(m, col) == solve_matrix(m, IntMatrix.column(col)).col(0)
        try:
            want_j = _snf_solve_matrix(m, IntMatrix.column(col)).col(0)
        except NoSolution:
            assert x is None
            continue
        assert m.mul_vec(x) == col
        if r == m.cols:
            assert x == want_j


@settings(max_examples=120, deadline=None)
@given(st.one_of(matrices, sparse_matrices), st.data())
def test_sparse_solves_agree_with_the_dense_route(m, data):
    k = data.draw(st.integers(0, 2))
    x = IntMatrix.from_rows(data.draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=k, max_size=k),
        min_size=m.cols, max_size=m.cols)), cols=k)
    noise = IntMatrix.from_rows(data.draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=k, max_size=k),
        min_size=m.rows, max_size=m.rows)), cols=k)
    for b in (m.mul(x), m.mul(x).add(noise)):
        _check_solves(m, b)


def test_solves_hand_the_unit_free_residual_to_the_dense_route(monkeypatch):
    # no entry of [[2, 4], [6, 8]] is a unit, so all of it goes to the
    # dense route; bordered by a unit pivot, it is the residual left over
    square = IntMatrix.from_rows([[2, 4], [6, 8]])
    bordered = IntMatrix.from_rows([[1, 3, 1], [0, 2, 4], [2, 12, 10]])
    for m in (square, bordered):
        _check_solves(m, m.mul(IntMatrix.from_rows([[1, -2, 0], [3, 0, 1], [1, 1, 0]][:m.cols])))
        _check_solves(m, IntMatrix.from_rows([[1]] + [[0]] * (m.rows - 1)))
    tracked = []
    inner = zlinalg._eliminate

    def counted(mat, track=()):
        tracked.append((mat.rows, mat.cols, track))
        return inner(mat, track)

    monkeypatch.setattr(zlinalg, "_eliminate", counted)
    assert solve(square, (2, 6)) == (1, 0)
    assert solve(bordered, (1, 0, 2)) == (1, 0, 0)
    assert solve(bordered, (0, 2, 6)) == (-3, 1, 0)
    with pytest.raises(NoSolution):
        solve(square, (1, 0))
    with pytest.raises(NoSolution):
        solve(bordered, (0, 1, 0))
    assert tracked == [(2, 2, ("u_inv", "v_inv"))] * 5
