import hashlib

import pytest

from clusterforge import clear_caches, rep, verify
from clusterforge.cluster import build_pool
from clusterforge.errors import (
    IsInjective,
    IsProjective,
    NotExceptional,
    PreconditionViolated,
    SimpleAtVertex,
    VertexNotSinkOrSource,
)
from clusterforge.quiver import Quiver, coxeter_apply
from clusterforge.rep import (
    ZRep,
    are_isomorphic_exceptional,
    base_change,
    dim_vector,
    field_hom_ext_dims,
    injective_lattice,
    make_lattice,
    projective,
    simple,
    torsion_simple,
)
from clusterforge.serre import (
    ShiftedModule,
    f_apply,
    injective_index_of,
    projective_index_of,
    reflect,
    tau,
    tau_canonical,
    tau_inv,
)
from clusterforge.zlinalg import IntMatrix

import oracles
from test_cluster import TAU_CLOSED_POOLS

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
# the orientation of the e7-verify benchmark workload
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))


def test_tau_examples():
    assert are_isomorphic_exceptional(tau(simple(A2, 1)), simple(A2, 2))
    with pytest.raises(IsProjective):
        tau(projective(A2, 1))
    assert dim_vector(tau(simple(A3, 1))) == (0, 1, 0)


def test_tau_rejects_non_rigid():
    with pytest.raises(NotExceptional):
        tau(torsion_simple(A2, 1, 2))


def test_tau_inv_examples():
    assert are_isomorphic_exceptional(tau_inv(simple(A2, 2)), simple(A2, 1))
    with pytest.raises(IsInjective):
        tau_inv(injective_lattice(A2, 1))
    assert dim_vector(tau_inv(projective(KRONECKER, 2))) == (2, 3)


def test_tau_round_trip():
    for q in (A2, A3):
        for i in q.vertices:
            m = simple(q, i)
            if projective_index_of(m) is not None:
                continue
            back = tau_inv(tau(m))
            assert are_isomorphic_exceptional(back, m)


def test_tau_is_the_composite_of_sink_reflections(monkeypatch):
    # C+ reflects at 3, 2, 1 on 1 -> 2 -> 3 and builds no resolution
    def no_resolution(m):
        raise AssertionError("tau built a projective resolution")

    monkeypatch.setattr(rep, "projective_resolution", no_resolution)
    clear_caches()
    m = injective_lattice(A3, 2)   # (1, 1, 0)
    q, r = A3, m
    for v in (3, 2, 1):
        q, r = reflect(q, r, v)
    assert q == A3
    assert tau(m) == r
    assert dim_vector(r) == coxeter_apply(A3, dim_vector(m), 1) == (0, 1, 1)


def test_tau_dimension_is_coxeter():
    m = tau_inv(projective(KRONECKER, 2))
    assert dim_vector(tau(m)) == coxeter_apply(KRONECKER, dim_vector(m), 1)


def test_f_apply_rules():
    x = f_apply(ShiftedModule(simple(A2, 1), 0), 1)
    assert (dim_vector(x.module), x.shift) == ((0, 1), -1)
    x = f_apply(ShiftedModule(projective(A2, 1), 0), 1)
    assert (dim_vector(x.module), x.shift) == ((1, 0), -2)
    x = f_apply(ShiftedModule(injective_lattice(A2, 2), 0), -1)
    assert (dim_vector(x.module), x.shift) == ((0, 1), 2)


def test_f_apply_round_trip():
    for m in (simple(A2, 1), projective(A2, 1), injective_lattice(A3, 2), simple(A3, 2)):
        x = ShiftedModule(m, 0)
        fx = f_apply(x, 1)
        back = f_apply(fx, -1)
        assert back.shift == 0
        assert are_isomorphic_exceptional(back.module, m)


def test_tau_commutes_with_base_change():
    # the reduction of the translate has the dimension vector of the
    # field translate, checked through Coxeter on A2 and A3
    for q in (A2, A3):
        for i in q.vertices:
            m = simple(q, i)
            if projective_index_of(m) is not None:
                continue
            t = tau(m)
            for p in (2, 3, 5):
                f = base_change(t, p)
                assert f.dims == coxeter_apply(q, dim_vector(m), 1)
                assert field_hom_ext_dims(f, f) == (1, 0)


def test_reflect_sink():
    new_q, r = reflect(A2, projective(A2, 1), 2)
    assert new_q.arrows == ((2, 1),)
    assert dim_vector(r) == (1, 0)


def test_reflect_simple_at_vertex():
    with pytest.raises(SimpleAtVertex):
        reflect(A2, simple(A2, 2), 2)
    with pytest.raises(SimpleAtVertex):
        reflect(A2, simple(A2, 1), 1)


def test_reflect_middle_vertex_rejected():
    with pytest.raises(VertexNotSinkOrSource):
        reflect(A3, simple(A3, 1), 2)


def test_reflect_round_trip():
    for m in (projective(A2, 1), injective_lattice(A2, 2)):
        q1, r1 = reflect(A2, m, 2)
        q2, r2 = reflect(q1, r1, 2)
        assert q2 == A2
        assert are_isomorphic_exceptional(r2, m)
    for m in (projective(KRONECKER, 1), tau_inv(projective(KRONECKER, 2))):
        q1, r1 = reflect(KRONECKER, m, 2)
        q2, r2 = reflect(q1, r1, 2)
        assert q2 == KRONECKER
        assert are_isomorphic_exceptional(r2, m)


def test_reflect_source():
    q1, r1 = reflect(A2, projective(A2, 2), 1)
    assert q1.arrows == ((2, 1),)
    # reflection acts by s_1 on dimension vectors: s_1(0,1) = (1,1)
    assert dim_vector(r1) == (1, 1)


def test_index_detection():
    assert projective_index_of(projective(A3, 2)) == 2
    assert projective_index_of(simple(A3, 1)) is None
    assert injective_index_of(injective_lattice(A3, 3)) == 3
    # on linear A3 the lattice P_1 is also the injective I_3
    assert injective_index_of(projective(A3, 1)) == 3
    assert injective_index_of(projective(A3, 2)) is None
    # on A2 the overlap P_1 = I_2 is recognized from both sides
    assert projective_index_of(injective_lattice(A2, 2)) == 1
    # S_1 = I_1 on A2 presented as Z --1--> Z with the generator at
    # vertex 2 killed by a relation: the generator counts are those of
    # P_1, the dimension vector (1, 0) is not
    s1 = ZRep(A2, (1, 1), (IntMatrix.zero(1, 0), IntMatrix.from_rows([[1]])),
              (IntMatrix.from_rows([[1]]),))
    assert projective_index_of(s1) is None
    assert injective_index_of(s1) == 1


@pytest.mark.parametrize("q, bound", TAU_CLOSED_POOLS,
                         ids=["A4", "D4", "E6", "Kronecker", "A~(2,1)", "wild"])
def test_recognition_by_dimension_vector_matches_isomorphism(q, bound):
    # every pool module and every translate of one is recognized as P_i
    # or I_i exactly when a unimodular Hom basis element says so
    modules = [o.module for o in build_pool(q, bound).modules()]
    modules += [tau(m) for m in modules if projective_index_of(m) is None]
    for m in modules:
        assert projective_index_of(m) == oracles.index_by_isomorphism(m, projective), \
            dim_vector(m)
        assert injective_index_of(m) == \
            oracles.index_by_isomorphism(m, injective_lattice), dim_vector(m)


def test_projective_translates_read_as_the_pool_projectives():
    # on E7 every P_i is the translate of a pool lattice, and the sink
    # reflections build four of them as a value other than the P_i the
    # pool holds; tau_canonical returns that P_i and every other
    # translate unchanged
    modules = [o.module for o in build_pool(E7, 12).modules()]
    translated = [m for m in modules if projective_index_of(m) is None]
    onto = [m for m in translated if projective_index_of(tau(m)) is not None]
    assert len(onto) == 7
    assert sum(tau(m) != projective(E7, projective_index_of(tau(m))) for m in onto) == 4
    for m in translated:
        i = projective_index_of(tau(m))
        if i is None:
            assert tau_canonical(m) is tau(m)
        else:
            assert tau_canonical(m) is projective(E7, i)
        assert tau_canonical(m) in modules


def test_recognition_rejects_non_exceptional_lattices():
    # Z --0--> Z has the generator counts of P_1 = I_2 but splits
    split = make_lattice(A2, (1, 1), (IntMatrix.from_rows([[0]]),))
    with pytest.raises(PreconditionViolated):
        projective_index_of(split)
    with pytest.raises(PreconditionViolated):
        injective_index_of(split)


@pytest.mark.parametrize("q, bound", TAU_CLOSED_POOLS,
                         ids=["A4", "D4", "E6", "Kronecker", "A~(2,1)", "wild"])
def test_reflected_lattices_equal_checked_ones(q, bound):
    # the reflections build each lattice of the Coxeter walk without the
    # constructor's checks; every translate still passes them and compares
    # and hashes like the checked value
    for obj in build_pool(q, bound).modules():
        m = obj.module
        built = []
        if projective_index_of(m) is None:
            built.append(tau(m))
        if injective_index_of(m) is None:
            built.append(tau_inv(m))
        for t in built:
            checked = ZRep(t.quiver, t.gens, t.relations, t.actions)
            assert t == checked and hash(t) == hash(checked)
            assert repr(t) == repr(checked)


@pytest.mark.parametrize("q, bound", TAU_CLOSED_POOLS,
                         ids=["A4", "D4", "E6", "Kronecker", "A~(2,1)", "wild"])
def test_translates_stay_on_the_callers_quiver(q, bound):
    # the sink reflections end on an orientation equal to m.quiver and
    # tau_inv dualizes through the opposite quiver; both translates are
    # put back on m.quiver itself, so no lookup compares two quivers
    # field by field
    for obj in build_pool(q, bound).modules():
        m = obj.module
        if projective_index_of(m) is None:
            assert tau(m).quiver is m.quiver
        if injective_index_of(m) is None:
            assert tau_inv(m).quiver is m.quiver
            assert rep.dualize(rep.dualize(m)).quiver is m.quiver


@pytest.mark.parametrize("arrows, bound, built, orientations", (
    (((1, 2), (1, 2)), 12, 3, 2),
    (((1, 2), (2, 3), (1, 3)), 6, 7, 6),
), ids=["Kronecker@12", "A~(2,1)@6"])
def test_verify_builds_few_quivers(arrows, bound, built, orientations, monkeypatch):
    # each quiver keeps its one opposite, and tau and tau_inv put their
    # translates on the quiver of their argument, so verify constructs
    # the reflected orientations once and one opposite
    q = Quiver(max(max(a) for a in arrows), arrows)
    made = []
    checked = Quiver.__post_init__

    def counted(quiver):
        checked(quiver)
        made.append(quiver.arrows)

    clear_caches()
    monkeypatch.setattr(Quiver, "__post_init__", counted)
    assert verify.run_suite(q, bound).ok
    assert len(made) == built
    assert len(set(made)) == orientations


E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
A_TILDE_2_1 = Quiver(3, ((1, 2), (2, 3), (1, 3)))

# sha256 of repr((gens, action entries)) of every pool module in pool
# order, each built by its orbit walk of sink reflections on first read
ORBIT_MODULE_DIGESTS = (
    (E6, 12, 36, "b1230bef84b39a63834d5ae3cd8d0ebfdc312366b5c7f442a81756486a7343e1"),
    (E7, 12, 63, "451a4697b893c4f3abbd72e225a989bb6b95a8618f1b934139534ecc371d6c23"),
    (KRONECKER, 6, 12, "b94adf7f5fe0ee1615492d1df7c54b42a9b96fe9371cbd9fe6e5b4bab7369bb7"),
    (A_TILDE_2_1, 5, 20, "37471971a9521f29ccdad60b32e61c796258cf870839ed6fcb7281023bdd981a"),
)


@pytest.mark.parametrize("q, bound, count, digest", ORBIT_MODULE_DIGESTS,
                         ids=["E6", "E7", "Kronecker", "A~(2,1)"])
def test_orbit_module_bases_are_pinned(q, bound, count, digest):
    # the printed bases of tau, pool and mutate go through these lattices,
    # so a change to the reflections must leave every basis as it is
    clear_caches()
    h = hashlib.sha256()
    objects = build_pool(q, bound).modules()
    for obj in objects:
        m = obj.module
        h.update(repr((m.gens, tuple(a.entries for a in m.actions))).encode())
    assert len(objects) == count and all(obj.coord is not None for obj in objects)
    assert h.hexdigest() == digest
