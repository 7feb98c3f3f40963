import pytest
from hypothesis import given, settings, strategies as st

from clusterforge.errors import CyclicQuiver, DimensionMismatch
from clusterforge.quiver import (
    Quiver,
    _euler_inverse,
    coxeter_apply,
    coxeter_inverse,
    coxeter_matrix,
    dynkin_type,
    euler_form,
    euler_matrix,
    is_connected,
    validate,
)
from clusterforge.zlinalg import IntMatrix

A2 = Quiver(2, ((1, 2),))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


def test_validate_a2():
    assert validate(A2) == (1, 2)


def test_validate_cycle():
    with pytest.raises(CyclicQuiver):
        validate(Quiver(2, ((1, 2), (2, 1))))


def test_validate_parallel_arrows():
    assert validate(KRONECKER) == (1, 2)


def test_validate_loop_rejected():
    with pytest.raises(CyclicQuiver):
        validate(Quiver(1, ((1, 1),)))


def test_euler_form_examples():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (0, 0), (5, 7)) == 0
    assert euler_form(A2, (1, 1), (1, 1)) == 1


def test_euler_form_shape_check():
    with pytest.raises(DimensionMismatch):
        euler_form(A2, (1,), (0, 1))


def test_coxeter_examples():
    assert coxeter_apply(A2, (1, 0), 1) == (0, 1)
    assert coxeter_apply(Quiver(1, ()), (1,), 1) == (-1,)
    assert coxeter_apply(KRONECKER, (0, 1), -1) == (2, 3)


def test_dynkin_examples():
    assert dynkin_type(A2) == "A2"
    assert dynkin_type(KRONECKER) == "NotDynkin"
    assert dynkin_type(Quiver(4, ((1, 4), (2, 4), (3, 4)))) == "D4"
    assert dynkin_type(Quiver(1, ())) == "A1"
    assert dynkin_type(Quiver(3, ((1, 2),))) == "NotDynkin"  # disconnected
    e6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3)))
    assert dynkin_type(e6) == "E6"
    e7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 3)))
    assert dynkin_type(e7) == "E7"
    e8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 3)))
    assert dynkin_type(e8) == "E8"
    d5 = Quiver(5, ((1, 3), (2, 3), (3, 4), (4, 5)))
    assert dynkin_type(d5) == "D5"
    star4 = Quiver(5, ((1, 5), (2, 5), (3, 5), (4, 5)))
    assert dynkin_type(star4) == "NotDynkin"


@st.composite
def acyclic_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    arrows = []
    for pair in pairs:
        count = draw(st.integers(min_value=0, max_value=2))
        arrows.extend([pair] * count)
    return Quiver(n, tuple(arrows))


@settings(max_examples=50, deadline=None)
@given(acyclic_quivers(), st.data())
def test_coxeter_round_trip(q, data):
    d = tuple(data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(q.n))
    assert coxeter_apply(q, coxeter_apply(q, d, 1), -1) == d
    assert coxeter_apply(q, coxeter_apply(q, d, -1), 1) == d


@settings(max_examples=50, deadline=None)
@given(acyclic_quivers())
def test_topological_order_property(q):
    order = validate(q)
    position = {v: i for i, v in enumerate(order)}
    for s, t in q.arrows:
        assert position[s] < position[t]


@settings(max_examples=30, deadline=None)
@given(acyclic_quivers(), st.data())
def test_euler_form_is_bilinear(q, data):
    vec = st.tuples(*[st.integers(-4, 4) for _ in range(q.n)])
    d, e, f = data.draw(vec), data.draw(vec), data.draw(vec)
    lhs = euler_form(q, d, tuple(x + y for x, y in zip(e, f)))
    assert lhs == euler_form(q, d, e) + euler_form(q, d, f)
    direct = sum(d[i] * e[i] for i in range(q.n)) \
        - sum(d[s - 1] * e[t - 1] for s, t in q.arrows)
    assert euler_form(q, d, e) == direct


def test_coxeter_matrix_unimodular():
    for q in (A2, KRONECKER, Quiver(3, ((1, 2), (2, 3)))):
        phi = coxeter_matrix(q)
        b = euler_matrix(q)
        # Phi = -B^{-1} B^T pinned by the translate convention
        assert b.mul(phi).entries == b.transpose().neg().entries


@settings(max_examples=30, deadline=None)
@given(acyclic_quivers())
def test_euler_inverse_counts_paths(q):
    from clusterforge.rep import paths_from
    for quiver in (q, q.opposite()):
        inv = _euler_inverse(quiver)
        assert euler_matrix(quiver).mul(inv) == IntMatrix.identity(quiver.n)
        assert inv.entries == tuple(tuple(len(paths_from(quiver, i)[j]) for j in quiver.vertices)
                                    for i in quiver.vertices)
        assert coxeter_matrix(quiver).mul(coxeter_inverse(quiver)) == IntMatrix.identity(quiver.n)


def test_euler_row_of_projective_reads_ranks():
    from clusterforge.rep import dim_vector, injective_lattice, projective
    for q in (A2, KRONECKER, Quiver(3, ((1, 2), (2, 3)))):
        mods = [projective(q, i) for i in q.vertices]
        mods += [injective_lattice(q, i) for i in q.vertices]
        for m in mods:
            for i in q.vertices:
                assert euler_form(q, dim_vector(projective(q, i)), dim_vector(m)) \
                    == dim_vector(m)[i - 1]


def test_is_connected():
    assert is_connected(Quiver(1, ())) and is_connected(Quiver(3, ((1, 2), (3, 2))))
    assert not is_connected(Quiver(3, ((2, 3),)))
    assert not is_connected(Quiver(4, ((1, 2), (3, 4), (3, 4))))
