import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterforge import clear_caches, rep, zlinalg
from clusterforge.cluster import build_pool
from clusterforge.errors import NotASummand, PreconditionViolated
from clusterforge.quiver import Quiver, euler_form, validate
from clusterforge.rep import (
    ZRep,
    are_isomorphic_exceptional,
    base_change,
    dim_vector,
    direct_sum,
    dualize,
    ext1_group,
    field_hom_ext_dims,
    hom_group,
    injective_lattice,
    is_exceptional,
    is_rigid,
    make_lattice,
    paths_from,
    projective,
    projective_resolution,
    simple,
    strip_summand,
    torsion_simple,
    zero_rep,
)
from clusterforge.zlinalg import (
    FinAbGroup,
    IntMatrix,
    kernel_basis,
    kernel_rank_cokernel,
    snf,
    solve_matrix,
    subquotient_structure,
)

import oracles

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
A_TILDE_2_1 = Quiver(3, ((1, 2), (2, 3), (1, 3)))


def test_projective_ranks():
    assert dim_vector(projective(A2, 1)) == (1, 1)
    assert projective(A2, 1).actions[0].entries == ((1,),)
    assert dim_vector(projective(A2, 2)) == (0, 1)
    assert dim_vector(projective(KRONECKER, 1)) == (1, 2)


def test_injective_ranks():
    assert dim_vector(injective_lattice(A2, 2)) == (1, 1)
    assert dim_vector(injective_lattice(A2, 1)) == (1, 0)
    assert dim_vector(injective_lattice(KRONECKER, 1)) == (1, 0)


def test_action_descends_validation():
    # Z/2 at the source: the identity action does not kill the relation
    with pytest.raises(Exception):
        ZRep(A2, (1, 1),
             (IntMatrix.from_rows([[2]]), IntMatrix.zero(1, 0)),
             (IntMatrix.from_rows([[1]]),))
    # Z/2 -> Z/4 by doubling descends
    ZRep(A2, (1, 1),
         (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]])),
         (IntMatrix.from_rows([[2]]),))
    # torsion at the sink accepts any action into it
    ZRep(A2, (1, 1),
         (IntMatrix.zero(1, 0), IntMatrix.from_rows([[2]])),
         (IntMatrix.from_rows([[1]]),))


def test_hom_examples():
    p1, p2 = projective(A2, 1), projective(A2, 2)
    s1, s2 = simple(A2, 1), simple(A2, 2)
    assert hom_group(p1, p1).group == FinAbGroup(1)
    assert hom_group(s1, s2).group == FinAbGroup(0)
    assert hom_group(p2, p1).group == FinAbGroup(1)
    assert hom_group(p1, p2).group == FinAbGroup(0)


def test_hom_basis_is_deterministic():
    a = hom_group(projective(A2, 2), projective(A2, 1))
    b = hom_group(projective(A2, 2), projective(A2, 1))
    assert a.basis == b.basis


def test_hom_projective_adjunction():
    for q in (A2, A3, KRONECKER):
        mods = [projective(q, i) for i in q.vertices] + [injective_lattice(q, i) for i in q.vertices]
        for m in mods:
            for i in q.vertices:
                assert hom_group(projective(q, i), m).free_rank == dim_vector(m)[i - 1]


def test_ext_examples():
    s1, s2 = simple(A2, 1), simple(A2, 2)
    assert ext1_group(s1, s2) == FinAbGroup(1)
    for n in (s1, s2, projective(A2, 1)):
        assert ext1_group(projective(A2, 1), n).is_trivial
        assert ext1_group(projective(A2, 2), n).is_trivial


def test_torsion_module_self_extensions():
    m = torsion_simple(A2, 1, 2)
    assert ext1_group(m, m) == FinAbGroup(0, (2,))
    assert hom_group(m, m).group == FinAbGroup(0, (2,))
    assert not is_rigid(m)


def test_torsion_module_resolution_shape():
    m = torsion_simple(A2, 1, 2)
    res = projective_resolution(m)
    assert res.p0 == (1,)
    assert sorted(res.p1) == [1, 2]
    assert res.p2 == (2,)
    entries = [e for row in res.d1 for e in row]
    scalars = [c for entry in entries for p, c in entry if p == ()]
    arrows = [p for entry in entries for p, c in entry if p]
    assert 2 in [abs(c) for c in scalars]
    assert ((0,) in arrows)


def test_simple_resolution():
    res = projective_resolution(simple(A2, 1))
    assert res.p0 == (1,) and res.p1 == (2,) and res.p2 == ()
    assert res.d1 == (((((0,), 1),),),)


def test_projective_resolution_is_identity():
    res = projective_resolution(projective(A2, 1))
    assert res.p0 == (1,) and res.p1 == () and res.p2 == ()
    # a redundantly presented projective minimizes to the same shape
    red = make_lattice(A2, (1, 1), (IntMatrix.from_rows([[1]]),))
    res2 = projective_resolution(red)
    assert res2.p1 == () and res2.p2 == ()


def proj_map_vertex_matrices(q: Quiver, row_slots, col_slots, entries) -> tuple:
    """Vertexwise matrices of a path-coefficient map P(cols) -> P(rows).

    The entry at (r, c) is a sum of paths p from the row vertex to the
    column vertex; such a p sends a basis path t of the column
    projective to the concatenation p+t in the row projective.
    """
    mats = []
    for j in q.vertices:
        row_basis = [(r, p) for r, v in enumerate(row_slots) for p in paths_from(q, v)[j]]
        col_basis = [(c, p) for c, v in enumerate(col_slots) for p in paths_from(q, v)[j]]
        index = {key: i for i, key in enumerate(row_basis)}
        out = [[0] * len(col_basis) for _ in row_basis]
        for ci, (c, t) in enumerate(col_basis):
            for r in range(len(row_slots)):
                for p, coeff in entries[r][c]:
                    out[index[(r, p + t)]][ci] += coeff
        mats.append(IntMatrix.from_rows(out, cols=len(col_basis)))
    return tuple(mats)


def action_along_path(m: ZRep, start: int, path: tuple) -> IntMatrix:
    """The composite action matrix of a path on generator columns, by dense
    products: the reference for the sparse path actions of the library."""
    out = IntMatrix.identity(m.gens[start - 1])
    for a in path:
        assert m.quiver.arrows[a][0] == start, "path does not compose"
        out = m.actions[a].mul(out)
        start = m.quiver.arrows[a][1]
    return out


def _resolution_h1(res, n):
    """Ext^1 read off the minimal resolution, also for a lattice, whose
    Hom and Ext^1 the library reads off its presentation."""
    return rep._cohomology(rep._resolution_complex(res), n, 1)[0]


def _realized(res):
    q = res.module.quiver
    d1 = proj_map_vertex_matrices(q, res.p0, res.p1, res.d1)
    d2 = proj_map_vertex_matrices(q, res.p1, res.p2, res.d2)
    eps = []
    for j in q.vertices:
        cols = []
        for slot, v in enumerate(res.p0):
            for p in paths_from(q, v)[j]:
                cols.append(action_along_path(res.module, v, p).mul_vec(res.augmentation[slot]))
        eps.append(IntMatrix(res.module.gens[j - 1], len(cols),
                             tuple(tuple(c[r] for c in cols)
                                   for r in range(res.module.gens[j - 1]))))
    return eps, d1, d2


def assert_resolution_exact(m):
    res = projective_resolution(m)
    eps, d1, d2 = _realized(res)
    q = m.quiver
    for v in range(q.n):
        # complex: consecutive maps compose to zero (modulo relations onto the module)
        comp = eps[v].mul(d1[v])
        if comp.cols:
            solve_matrix(m.relations[v], comp)  # raises if not inside the relations
        assert d1[v].mul(d2[v]).is_zero()
        # surjectivity of the augmentation
        aug_cok = subquotient_structure(
            eps[v].hstack(m.relations[v]), eps[v].hstack(m.relations[v]))
        assert aug_cok.is_trivial
        full = IntMatrix.identity(m.gens[v])
        solve_matrix(eps[v].hstack(m.relations[v]), full)
        # homology at p1: kernel of eps equals image of d1
        sys1 = eps[v].hstack(m.relations[v].neg())
        kb = kernel_basis(sys1)
        cycles = kb.submatrix(range(eps[v].cols), range(kb.cols))
        assert subquotient_structure(cycles, d1[v]).is_trivial
        # homology at p2: kernel of d1 equals image of d2, and d2 is injective
        assert subquotient_structure(kernel_basis(d1[v]), d2[v]).is_trivial
        assert kernel_basis(d2[v]).cols == 0


def test_resolution_exactness():
    for m in (simple(A2, 1), torsion_simple(A2, 1, 2), torsion_simple(A2, 2, 6),
              projective(A3, 1), simple(A3, 2), injective_lattice(A3, 1),
              projective(KRONECKER, 1), torsion_simple(A3, 2, 4)):
        assert_resolution_exact(m)


def assert_resolution_minimal(res):
    """No same-vertex trivial-path block of d1 or d2 has a unit invariant factor.

    The first invariant factor of an integer block is the gcd of its
    entries, so a unit one is exactly an entry gcd of 1.
    """
    for rows, cols, d in ((res.p0, res.p1, res.d1), (res.p1, res.p2, res.d2)):
        for u in res.module.quiver.vertices:
            block = [dict(d[r][c]).get((), 0) for r, v in enumerate(rows) if v == u
                     for c, w in enumerate(cols) if w == u]
            assert math.gcd(*block) != 1, (u, rows, cols, d)


def test_resolution_minimality():
    for m in (simple(A2, 1), torsion_simple(A2, 1, 2), torsion_simple(A2, 2, 6),
              projective(A3, 1), simple(A3, 2), injective_lattice(A3, 1),
              projective(KRONECKER, 1), torsion_simple(A3, 2, 4)):
        assert_resolution_minimal(projective_resolution(m))


def random_presented(q: Quiver, rng: random.Random, lattice: bool = False) -> ZRep:
    """Random actions and, unless lattice, random relations closed under the arrows."""
    gens = [rng.randint(0, 2) for _ in q.vertices]
    actions = [IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(gens[s - 1])]
                                    for _ in range(gens[t - 1])], cols=gens[s - 1])
               for s, t in q.arrows]
    relations = {}
    for v in validate(q):
        g = gens[v - 1]
        cols = [] if lattice else \
            [[rng.choice((0, 0, 1, 2, 3, -4)) for _ in range(g)] for _ in range(rng.randint(0, 2))]
        for a in q.arrows_into(v):
            image = actions[a].mul(relations[q.arrows[a][0]])
            cols += [image.col(j) for j in range(image.cols)]
        relations[v] = IntMatrix.from_rows([[c[r] for c in cols] for r in range(g)], cols=len(cols))
    return ZRep(q, tuple(gens), tuple(relations[v] for v in q.vertices), tuple(actions))


@pytest.mark.parametrize("q", (A3, KRONECKER, D4, A_TILDE_2_1),
                         ids=["A3", "Kronecker", "D4", "A~(2,1)"])
def test_random_presented_resolutions(q):
    # exact and minimal on 50 random presented modules per quiver; on
    # lattice pairs, where ext1_group takes the intertwining route, the
    # resolution's H^1 must agree with it
    rng = random.Random(13)
    targets = [projective(q, i) for i in q.vertices] + [injective_lattice(q, i) for i in q.vertices]
    targets += [random_presented(q, rng, lattice=True) for _ in range(2)]
    for k in range(50):
        m = random_presented(q, rng, lattice=k % 5 == 0)
        assert_resolution_exact(m)
        res = projective_resolution(m)
        assert_resolution_minimal(res)
        if m.is_lattice:
            for n in targets:
                assert _resolution_h1(res, n) == ext1_group(m, n), (m, n)


# P_1 on A2 presented with generators [1, 2], relations (1, 1) at vertex
# 2 and action (1, 0): N_2 = Z^2 / (1, 1) = Z, generated by the image
PRESENTED_P1 = ZRep(A2, (1, 2), (IntMatrix.zero(1, 0), IntMatrix.from_rows([[1], [1]])),
                    (IntMatrix.from_rows([[1], [0]]),))


def test_hom_into_a_presented_module():
    # Yoneda: Hom(P_1, N) = N_1 = Z; and N = P_1 is exceptional
    n = PRESENTED_P1
    assert hom_group(projective(A2, 1), n).group == FinAbGroup(1)
    assert hom_group(n, n).group == FinAbGroup(1)
    assert is_exceptional(n)
    (f,) = hom_group(n, n).basis
    # the identity on N_2 = Z^2 / (1, 1), up to the relation
    assert solve_matrix(n.relations[1], f[1].add(IntMatrix.identity(2).neg()))


@pytest.mark.parametrize("q", (A3, KRONECKER, D4, A_TILDE_2_1),
                         ids=["A3", "Kronecker", "D4", "A~(2,1)"])
def test_hom_rank_is_the_rational_dimension(q):
    # Hom_Z(M, N) (x) Q = Hom_Q(M (x) Q, N (x) Q) for a finitely presented M,
    # and base_change(-, 0) reads the rational side off the saturated
    # cokernels, with no Hom of the library in between
    rng = random.Random(7)
    modules = [random_presented(q, rng, lattice=k % 5 == 0) for k in range(20)]
    assert sum(not n.is_lattice for n in modules) >= 12
    for m in modules:
        for n in modules:
            rational = field_hom_ext_dims(base_change(m, 0), base_change(n, 0))[0]
            assert hom_group(m, n).free_rank == rational, (m, n)


def test_ext_dual_route_agreement():
    mods = [projective(A3, i) for i in A3.vertices]
    mods += [injective_lattice(A3, i) for i in A3.vertices]
    mods += [simple(A3, i) for i in A3.vertices]
    for m in mods:
        for n in mods:
            fast = ext1_group(m, n)
            slow = _resolution_h1(projective_resolution(m), n)
            assert fast == slow, (dim_vector(m), dim_vector(n))


def test_euler_pairing_on_a2():
    mods = [projective(A2, 1), projective(A2, 2), simple(A2, 1)]
    for m in mods:
        for n in mods:
            lhs = hom_group(m, n).free_rank - ext1_group(m, n).free_rank
            assert lhs == euler_form(A2, dim_vector(m), dim_vector(n))


def test_base_change_examples():
    m = torsion_simple(A2, 1, 2)
    assert base_change(m, 2).dims == (1, 0)
    assert base_change(m, 3).dims == (0, 0)
    assert base_change(m, 0).dims == (0, 0)
    assert base_change(direct_sum(m, simple(A2, 1)), 0).dims == (1, 0)
    assert base_change(projective(A2, 1), 7).dims == (1, 1)
    assert base_change(projective(A2, 1), 0).dims == (1, 1)
    assert base_change(projective(A2, 1), 0).actions == (((1,),),)


@pytest.mark.parametrize("q", (A3, KRONECKER, D4, A_TILDE_2_1),
                         ids=["A3", "Kronecker", "D4", "A~(2,1)"])
def test_base_change_of_a_lattice(q):
    # a lattice keeps its generators and its action entries, mod p over
    # F_p, and is the lattice it reduces; a copy with a zero relation,
    # no lattice, reduces by elimination to the same space and matrices
    rng = random.Random(11)
    for _ in range(25):
        m = random_presented(q, rng, lattice=True)
        v = rng.choice([v for v in q.vertices if m.gens[v - 1]] or [None])
        zero_relation = None if v is None else ZRep(q, m.gens, tuple(
            IntMatrix.zero(g, int(w == v)) for w, g in zip(q.vertices, m.gens)), m.actions)
        for p in (0, 2, 3, 5):
            f = base_change(m, p)
            assert f.dims == m.gens and f.lattice is m
            assert f.actions == tuple(tuple(tuple(x % p if p else x for x in row)
                                            for row in a.entries) for a in m.actions)
            if zero_relation is not None:
                g = base_change(zero_relation, p)
                assert (g.dims, g.actions) == (f.dims, f.actions)


def test_field_dims_examples():
    s1, s2, p1 = simple(A2, 1), simple(A2, 2), projective(A2, 1)
    assert field_hom_ext_dims(base_change(s1, 2), base_change(s2, 2)) == (0, 1)
    for p in (2, 3, 5, 0):
        assert field_hom_ext_dims(base_change(p1, p), base_change(p1, p)) == (1, 0)
        assert field_hom_ext_dims(base_change(p1, p), base_change(s1, p))[1] == 0


def test_rigidity_examples():
    assert is_exceptional(simple(A2, 1))
    assert not is_rigid(torsion_simple(A2, 1, 2))
    double = direct_sum(projective(A2, 1), projective(A2, 1))
    assert is_rigid(double)
    assert not is_exceptional(double)


def test_strip_summand():
    p1, s1 = projective(A2, 1), simple(A2, 1)
    rest = strip_summand(direct_sum(p1, s1), s1)
    assert dim_vector(rest) == (1, 1)
    assert are_isomorphic_exceptional(rest, p1)
    with pytest.raises(NotASummand):
        strip_summand(p1, s1)
    assert dim_vector(strip_summand(direct_sum(s1, s1), s1)) == (1, 0)


def test_direct_sum_ranks():
    ds = direct_sum(simple(A2, 1), simple(A2, 2))
    assert dim_vector(ds) == (1, 1)
    assert ds.actions[0].is_zero()


def test_iso_exceptional():
    assert are_isomorphic_exceptional(projective(A2, 1), projective(A2, 1))
    assert not are_isomorphic_exceptional(simple(A2, 1), simple(A2, 2))
    assert are_isomorphic_exceptional(injective_lattice(A2, 2), projective(A2, 1))
    with pytest.raises(PreconditionViolated):
        are_isomorphic_exceptional(torsion_simple(A2, 1, 2), simple(A2, 1))


def test_dualize_round_trip():
    for m in (projective(A3, 1), simple(A3, 2), injective_lattice(A3, 3)):
        assert dualize(dualize(m)) == m


def test_zero_rep():
    z = zero_rep(A2)
    assert z.is_zero()
    assert hom_group(z, projective(A2, 1)).group.is_trivial
    assert ext1_group(projective(A2, 1), z).is_trivial


def test_hom_ext_torsion_values():
    # hand-checked abelian group identities lifted to the quiver setting
    m4 = torsion_simple(A2, 1, 4)
    m6 = torsion_simple(A2, 1, 6)
    m2 = torsion_simple(A2, 1, 2)
    assert hom_group(m4, m6).group == FinAbGroup(0, (2,))
    assert hom_group(m2, simple(A2, 1)).group == FinAbGroup(0)
    assert hom_group(simple(A2, 1), m2).group == FinAbGroup(0, (2,))
    # extensions of Z/2 at the source by the simples: Z by Z/2 glues in
    # two ways, the sink simple only splits
    assert ext1_group(m2, simple(A2, 1)) == FinAbGroup(0, (2,))
    assert ext1_group(m2, simple(A2, 2)) == FinAbGroup(0)
    assert ext1_group(simple(A2, 1), m2) == FinAbGroup(0)


def test_base_change_matches_integral_ranks_up_to_13():
    mods = [projective(A2, 1), projective(A2, 2), simple(A2, 1)]
    for m in mods:
        for n in mods:
            want = (hom_group(m, n).free_rank, ext1_group(m, n).free_rank)
            for p in (0, 2, 3, 5, 7, 11, 13):
                got = field_hom_ext_dims(base_change(m, p), base_change(n, p))
                assert got == want, (dim_vector(m), dim_vector(n), p)


def test_cokernel_rep_presented():
    from clusterforge.rep import cokernel_rep
    s1 = simple(A2, 1)
    maps = (IntMatrix.from_rows([[2]]), IntMatrix.zero(0, 0))
    coker = cokernel_rep(s1, s1, maps)
    assert coker == torsion_simple(A2, 1, 2)
    lattice_part = cokernel_rep(s1, s1, maps, saturate=True)
    assert lattice_part.is_zero()


def test_dualize_rejects_torsion():
    with pytest.raises(PreconditionViolated):
        dualize(torsion_simple(A2, 1, 2))


A5_MIXED = Quiver(5, ((2, 1), (2, 3), (4, 3), (4, 5)))


def _flat(f) -> tuple:
    """A family of vertexwise maps as one vector, each block row-major in
    vertex order, the variables of the standard intertwining rows."""
    return tuple(x for block in f for row in block.entries for x in row)


@pytest.mark.parametrize("q", (D4, A5_MIXED, KRONECKER), ids=["D4", "A5-mixed", "Kronecker"])
def test_lattice_hom_and_ext_match_the_eager_reductions(q):
    # the eager route: a v_inv-tracked kernel basis and the full Smith
    # form, each on its own dense copy of the standard intertwining
    # matrix; the Hom basis lifted from the presentation spans the same
    # lattice of intertwining maps, each column solving in the other
    modules = [obj.module for obj in build_pool(q, 6).modules()]
    for m in modules:
        for n in modules:
            rows, width = oracles.standard_rows(m, n)
            mat = IntMatrix.from_rows([[row.get(c, 0) for c in range(width)] for row in rows],
                                      cols=width)
            kb = kernel_basis(mat)
            hom = hom_group(m, n)
            assert hom.group == FinAbGroup(kb.cols)
            basis = IntMatrix(width, kb.cols, tuple(zip(*map(_flat, hom.basis)))
                              if kb.cols else ((),) * width)
            solve_matrix(basis, kb)
            solve_matrix(kb, basis)
            for f in hom.basis:
                for a, (s, t) in enumerate(q.arrows):
                    assert f[t - 1].mul(m.actions[a]) == n.actions[a].mul(f[s - 1])
            diagonal = snf(mat).diagonal
            rank = sum(1 for d in diagonal if d)
            assert ext1_group(m, n) == FinAbGroup(mat.rows - rank,
                                                  tuple(d for d in diagonal if d > 1))


def test_one_untracked_reduction_per_lattice_pair(monkeypatch):
    # one sparse reduction per pair, then one v_inv-tracked dense one on
    # the first basis read
    clear_caches()
    m = projective(A3, 1)
    calls = []
    sparse, dense = zlinalg.smith_invariants, zlinalg._eliminate

    def counted_sparse(rows, p=0):
        calls.append("invariants")
        return sparse(rows, p)

    def counted_dense(mat, track=()):
        calls.append(tuple(track))
        return dense(mat, track)

    monkeypatch.setattr(zlinalg, "smith_invariants", counted_sparse)
    monkeypatch.setattr(zlinalg, "_eliminate", counted_dense)
    hom = hom_group(m, m)
    assert ext1_group(m, m).is_trivial
    assert is_exceptional(m)
    assert calls == ["invariants"]
    basis = hom.basis
    assert len(basis) == 1
    assert calls == ["invariants", ("v_inv",)]
    assert hom_group(m, m).basis is basis
    assert calls == ["invariants", ("v_inv",)]


def _count_kernel_bases(monkeypatch) -> list:
    """The matrices rep hands to kernel_basis from now on."""
    calls = []

    def counted(mat):
        calls.append((mat.rows, mat.cols))
        return kernel_basis(mat)

    monkeypatch.setattr(rep, "kernel_basis", counted)
    return calls


@pytest.mark.parametrize("q", (A2, KRONECKER), ids=["A2", "Kronecker"])
def test_rank_zero_lattice_hom_has_the_empty_basis_unreduced(q, monkeypatch):
    # Hom(P_1, P_2) = (P_2)_1 = 0: the basis follows from the rank alone
    clear_caches()
    calls = _count_kernel_bases(monkeypatch)
    hom = hom_group(projective(q, 1), projective(q, 2))
    assert hom.group.is_trivial
    assert hom.basis == ()
    assert calls == []


def test_strip_summand_reads_no_basis_when_a_hom_is_zero(monkeypatch):
    # Hom(P_2, P_1) = Z but Hom(P_1, P_2) = 0 on A2, so P_2 is no summand
    # of P_1; the two groups show it before either basis is built
    p1, p2 = projective(A2, 1), projective(A2, 2)
    clear_caches()
    assert is_exceptional(p2)
    calls = _count_kernel_bases(monkeypatch)
    with pytest.raises(NotASummand):
        strip_summand(p1, p2)
    assert hom_group(p2, p1).group == FinAbGroup(1)
    assert calls == []


D5 = Quiver(5, ((1, 3), (2, 3), (3, 4), (4, 5)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
WILD = Quiver(3, ((1, 2), (1, 2), (2, 3)))


def _pool_modules(q, bound) -> list:
    return [obj.module for obj in build_pool(q, bound).modules()]


def _presented_equals_standard(m, n, p) -> bool:
    """Over Z (p == 0, with Q) or F_p, the invariants read off m's
    presentation are those of the standard intertwining rows."""
    rows, width = oracles.standard_rows(m, n)
    rk = zlinalg.smith_invariants([dict(row) for row in rows], p)[0]
    field = field_hom_ext_dims(base_change(m, p), base_change(n, p))
    if field != (width - rk, len(rows) - rk):
        return False
    return p > 0 or kernel_rank_cokernel(*rep._presented_rows(m, n)) \
        == kernel_rank_cokernel(rows, width)


PRIMES = (0, 2, 3, 5)
POOLS = ((A5_MIXED, 12, "A5-mixed"), (D5, 12, "D5"), (E6, 12, "E6"), (E7, 12, "E7"),
         (KRONECKER, 12, "Kronecker"), (WILD, 6, "1=>2->3"), (A_TILDE_2_1, 5, "A~(2,1)"))


@pytest.mark.parametrize("q, bound, p", [pytest.param(q, bound, p, id=f"{name}-F{p}" if p else name)
                                         for q, bound, name in POOLS for p in PRIMES])
def test_presented_invariants_equal_the_standard_ones(q, bound, p):
    modules = _pool_modules(q, bound)
    for m in modules:
        for n in modules:
            assert _presented_equals_standard(m, n, p), (m, n)


@st.composite
def lattice_pairs(draw):
    """Two lattices over one of five quivers, of ranks 0-3, with action
    entries in {0, +-1, +-2, 3}: non-unit trivial-path entries survive
    the splitting and Ext^1 can have torsion."""
    q = draw(st.sampled_from((A3, KRONECKER, D4, WILD, A_TILDE_2_1)))

    def lattice():
        ranks = [draw(st.integers(0, 3)) for _ in q.vertices]
        actions = [IntMatrix.from_rows([[draw(st.sampled_from((0, 1, -1, 2, -2, 3)))
                                         for _ in range(ranks[s - 1])]
                                        for _ in range(ranks[t - 1])], cols=ranks[s - 1])
                   for s, t in q.arrows]
        return make_lattice(q, ranks, actions)

    return lattice(), lattice()


@settings(max_examples=150, deadline=None)
@given(lattice_pairs())
def test_presented_invariants_on_random_lattices(pair):
    for p in PRIMES:
        assert _presented_equals_standard(*pair, p), p


def _trivial_entries(m) -> list:
    """The coefficients of the trivial paths left in m's presentation."""
    return [x for row in m._presentation[3] for _, terms in row for p, x in terms if not p]


def test_random_lattices_reach_non_unit_entries_and_torsion():
    reached = set()

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(lattice_pairs())
    def record(pair):
        m, n = pair
        if _trivial_entries(m):
            reached.add("non-unit entry")
        if ext1_group(m, n).torsion:
            reached.add("torsion")

    record()
    assert reached == {"non-unit entry", "torsion"}


def _lattice_a2(x):
    return make_lattice(A2, (1, 1), (IntMatrix.from_rows([[x]]),))


# lattices whose minimal presentation keeps a trivial-path entry 2 or 3
NON_UNIT_ENTRIES = (
    _lattice_a2(2),
    make_lattice(KRONECKER, (1, 1), (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[0]]))),
    make_lattice(A3, (1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[3]]))),
    make_lattice(D4, (1, 1, 1, 2), (IntMatrix.from_rows([[2], [0]]), IntMatrix.from_rows([[0], [2]]),
                                    IntMatrix.from_rows([[1], [1]]))),
)


# P_1^2 on A2 with action (2 1; 3 1): pivoting on the second row's 1
# turns the first row's 3, checked before, into a unit
UNIT_BY_FILL_IN = make_lattice(A2, (2, 2), (IntMatrix.from_rows([[2, 1], [3, 1]]),))


@pytest.mark.parametrize("modules", (
    pytest.param(lambda: _pool_modules(E7, 12), id="E7"),
    pytest.param(lambda: _pool_modules(KRONECKER, 12), id="Kronecker"),
    pytest.param(lambda: _pool_modules(WILD, 6), id="1=>2->3"),
    pytest.param(lambda: _pool_modules(A_TILDE_2_1, 5), id="A~(2,1)"),
    pytest.param(lambda: NON_UNIT_ENTRIES, id="non-unit entries"),
    pytest.param(lambda: (UNIT_BY_FILL_IN,), id="unit by fill-in"),
))
def test_the_presentation_is_minimal(modules):
    # its rows and columns sit at the vertices of the minimal resolution's
    # P1 and P0, and no unit entry is left to split off
    for m in modules():
        col_vertices, row_vertices = m._presentation[:2]
        res = projective_resolution(m)
        assert sorted(row_vertices) == sorted(res.p1), m
        assert sorted(col_vertices) == sorted(res.p0), m
        assert all(abs(x) != 1 for x in _trivial_entries(m)), m


def test_non_unit_entries_survive_the_splitting():
    for m in NON_UNIT_ENTRIES:
        assert any(abs(x) > 1 for x in _trivial_entries(m)), m
    assert ext1_group(simple(A2, 1), _lattice_a2(2)) == FinAbGroup(0, (2,))
