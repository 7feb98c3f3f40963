import pytest

from clusterforge import clear_caches, zlinalg
from clusterforge.errors import (
    BalanceUnsolvable,
    NotExceptional,
    NotFoundWithinBound,
    PreconditionViolated,
)
from clusterforge.quiver import Quiver, coxeter_apply
from clusterforge import rep, serre
from clusterforge import cluster as cluster_module
from clusterforge.rep import (
    ZRep,
    dim_vector,
    ext1_group,
    hom_group,
    projective,
    simple,
    torsion_simple,
)
from clusterforge.serre import ShiftedModule, f_apply, tau_inv
from clusterforge.cluster import (
    ClusterObject,
    RigidPool,
    _balance_solution,
    _middle_terms,
    _ses_certified,
    build_pool,
    canonical_cluster,
    exchange_graph,
    exchange_triangles,
    ext1_c,
    g_functor,
    hom_c,
    is_cluster_tilting,
    mutate,
    mutate_construct,
    suspension,
    verify_bijection_mod_p,
)
from clusterforge.zlinalg import FinAbGroup, IntMatrix

import oracles

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


def co(m):
    return ClusterObject.from_module(m)


def sp(q, i):
    return ClusterObject.sigma_projective(q, i)


def test_cluster_object_requires_exceptional():
    with pytest.raises(PreconditionViolated):
        co(torsion_simple(A2, 1, 2))


def test_normalize_examples():
    # the oracle's orbit normalization, against which suspension is checked
    s1 = simple(A2, 1)
    assert oracles.normalize(ShiftedModule(s1, 0)).key() == ("M", (1, 0))
    assert oracles.normalize(ShiftedModule(s1, 1)).key() == ("M", (0, 1))
    assert oracles.normalize(ShiftedModule(projective(A2, 2), 2)).key() == ("M", (1, 1))
    assert oracles.normalize(ShiftedModule(projective(A2, 2), 1)).key() == ("S", (2,))


def test_normalize_is_orbit_invariant():
    checked = 0
    for q, bound in ((A2, 6), (A3, 6), (KRONECKER, 4)):
        pool = build_pool(q, bound)
        for obj in pool.modules():
            for shift in (-3, -2, -1, 0, 1, 2, 3):
                x = ShiftedModule(obj.module, shift)
                normalized = oracles.normalize(x)
                assert oracles.normalize(f_apply(x, 1)).key() == normalized.key()
                assert oracles.normalize(f_apply(x, -1)).key() == normalized.key()
                checked += 1
    assert checked >= 100


def test_hom_c_examples():
    p1 = co(projective(A2, 1))
    assert hom_c(p1, p1) == FinAbGroup(1)
    assert hom_c(sp(A2, 1), sp(A2, 1)) == FinAbGroup(1)
    # the suspension identifies sigma S_1 with P_2, so this Hom is the
    # nonsplit extension class group, free of rank one
    assert hom_c(co(simple(A2, 1)), sp(A2, 2)) == FinAbGroup(1)


def test_ext1_c_examples():
    s1, s2, p1 = co(simple(A2, 1)), co(projective(A2, 2)), co(projective(A2, 1))
    assert ext1_c(s1, s2) == FinAbGroup(1)
    assert ext1_c(p1, sp(A2, 2)) == FinAbGroup(1)
    pool = build_pool(A2, 5)
    for x in pool.objects:
        assert ext1_c(x, x).is_trivial


def test_g_functor():
    assert g_functor(sp(A2, 1)).is_zero()
    s1 = simple(A2, 1)
    assert g_functor(co(s1)) == s1
    # idempotence through the model
    assert g_functor(co(g_functor(co(s1)))) == s1


def test_g_functor_degree_zero_shadow():
    # the ordinary Hom against the module part sits inside the cluster
    # Hom; for a projective source the orbit correction vanishes and the
    # ranks agree exactly
    pool = build_pool(A3, 6)
    for x in pool.modules():
        for y in pool.modules():
            plain = hom_group(x.module, g_functor(y)).free_rank
            assert hom_c(x, y).free_rank >= plain
    for i in A3.vertices:
        p = co(projective(A3, i))
        for y in pool.objects:
            assert hom_c(p, y).free_rank == \
                hom_group(p.module, g_functor(y)).free_rank


def test_pool_a2():
    pool = build_pool(A2, 5)
    keys = [obj.key() for obj in pool.objects]
    assert keys == [("M", (0, 1)), ("M", (1, 0)), ("M", (1, 1)),
                    ("S", (1,)), ("S", (2,))]
    assert pool.complete


def test_pool_a3():
    pool = build_pool(A3, 5)
    assert len(pool.objects) == 9
    assert sum(1 for o in pool.objects if o.is_module) == 6
    assert pool.complete


def test_pool_kronecker():
    pool = build_pool(KRONECKER, 4)
    module_dims = sorted(dim_vector(o.module) for o in pool.modules())
    assert module_dims == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]
    assert not pool.complete


def test_is_cluster_tilting_examples():
    p1, p2 = co(projective(A2, 1)), co(projective(A2, 2))
    s1 = co(simple(A2, 1))
    assert is_cluster_tilting([p1, p2])[0]
    ok, cert = is_cluster_tilting([p1, sp(A2, 2)])
    assert not ok and cert
    assert is_cluster_tilting([s1, sp(A2, 2)])[0]
    assert not is_cluster_tilting([p1])[0]
    assert not is_cluster_tilting([p1, p1])[0]


def test_presented_simple_is_not_taken_for_a_projective():
    # S_1 on A2 presented with the generator counts of P_1: Z --1--> Z
    # with the generator at vertex 2 killed by a relation, dim (1, 0)
    s1 = co(ZRep(A2, (1, 1), (IntMatrix.zero(1, 0), IntMatrix.from_rows([[1]])),
                 (IntMatrix.from_rows([[1]]),)))
    p2 = co(projective(A2, 2))
    assert ext1_c(s1, p2) == FinAbGroup(1)
    # tau is computed on lattices only, so the pair is refused rather
    # than certified
    with pytest.raises(NotExceptional):
        is_cluster_tilting([s1, p2])
    with pytest.raises(NotExceptional):
        suspension(s1)


def test_mutate_pentagon():
    pool = build_pool(A2, 5)
    initial = canonical_cluster([co(projective(A2, 1)), co(projective(A2, 2))])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1)))
    step, tri = mutate(initial, k, pool)
    assert [s.key() for s in step] == [("M", (1, 0)), ("M", (1, 1))]
    assert tri.e == ()
    assert [s.key() for s in tri.e_prime] == [("M", (1, 1))]
    # involution
    k2 = next(i for i, s in enumerate(step) if s.key() == ("M", (1, 0)))
    back, _ = mutate(step, k2, pool)
    assert back == initial


def test_mutate_mixed_cluster():
    pool = build_pool(A2, 5)
    cluster = canonical_cluster([co(simple(A2, 1)), sp(A2, 2)])
    k = next(i for i, s in enumerate(cluster) if s.key() == ("S", (2,)))
    step, tri = mutate(cluster, k, pool)
    assert {s.key() for s in step} == {("M", (1, 0)), ("M", (1, 1))}
    assert tri.y.key() == ("M", (1, 1))


def test_mutate_construct_direct():
    initial = canonical_cluster([co(projective(A2, 1)), co(projective(A2, 2))])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1)))
    y = mutate_construct(initial, k)
    assert y.key() == ("M", (1, 0))


def test_mutate_construct_a3_middle():
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1, 1)))
    y = mutate_construct(initial, k)
    assert ext1_c(co(projective(A3, 2)), y) == FinAbGroup(1)


def test_exchange_triangle_balance():
    pool = build_pool(A3, 6)
    g = exchange_graph(A3, 6, 100)
    for i, k, j, tri in g.edges:
        target = tuple(a + b for a, b in zip(tri.x.dim_c(), tri.y.dim_c()))
        for multiset, witness in ((tri.e, tri.e_witness), (tri.e_prime, tri.e_prime_witness)):
            if witness == "connecting-iso":
                assert multiset == ()
                continue
            total = tuple(sum(s.dim_c()[v] for s in multiset) for v in range(A3.n))
            assert total == target


def test_exchange_triangles_need_rank_one():
    pool = build_pool(A2, 5)
    with pytest.raises(PreconditionViolated):
        exchange_triangles(co(projective(A2, 1)), co(projective(A2, 2)), ())


def test_exchange_graph_a2():
    g = exchange_graph(A2, 5, 100)
    assert len(g.nodes) == 5
    assert not g.truncated
    assert all(g.degree(i) == 2 for i in range(5))
    undirected = {(min(i, j), max(i, j)) for i, _, j, _ in g.edges}
    assert len(undirected) == 5  # a single 5-cycle


def test_exchange_graph_a1():
    q = Quiver(1, ())
    g = exchange_graph(q, 5, 10)
    keys = sorted(tuple(s.key() for s in node) for node in g.nodes)
    assert keys == [(("M", (1,)),), (("S", (1,)),)]
    assert len({(min(i, j), max(i, j)) for i, _, j, _ in g.edges}) == 1


def test_exchange_graph_matches_oracle_a3():
    pool = build_pool(A3, 6)
    oracle_nodes = {tuple(s.key() for s in c) for c in oracles.maximal_compatible_sets(pool)}
    g = exchange_graph(A3, 6, 1000)
    engine_nodes = {tuple(s.key() for s in node) for node in g.nodes}
    assert engine_nodes == oracle_nodes
    assert len(engine_nodes) == 14


def test_exchange_graph_kronecker_truncates():
    # the partner (4, 5) of (2, 3) next to (3, 4) is constructed past the
    # bound 4; it is reported as a truncation, not emitted
    g = exchange_graph(KRONECKER, 4, 8)
    assert g.truncated
    assert len(g.nodes) <= 8
    assert max(x for node in g.nodes for s in node for x in s.dim_c()) <= 4
    assert g.truncations == (("node-limit", 1), ("not-found-within-bound", 1))
    assert g.truncation_reason == "exchange partner M[4, 5] of M[2, 3] lies past the bound 4"


def test_exchange_graph_counts_every_truncation_cause():
    # at bound 1 the pool misses partners of clusters with a shifted
    # projective; the last such miss names the reason, both causes count
    g = exchange_graph(KRONECKER, 1, 3)
    assert g.truncated
    assert g.truncations == (("node-limit", 1), ("not-found-within-bound", 2))
    assert g.truncation_reason.startswith("no exchange partner for SP1")


def test_exchange_graph_closing_has_no_truncations():
    g = exchange_graph(A3, 6, 1000)
    assert not g.truncated
    assert g.truncation_reason == ""
    assert g.truncations == ()


def test_all_module_fallback_extends_pool():
    # the partner of (1,2) next to (2,3) is (3,4), missing from a pool
    # built at bound 3; past the bound it is refused, and once the bound
    # admits it the constructive route finds it and feeds it to the pool
    m1 = projective(KRONECKER, 1)           # (1, 2)
    m2 = tau_inv(projective(KRONECKER, 2))  # (2, 3)
    pool = build_pool(KRONECKER, 3)
    cluster = canonical_cluster([co(m1), co(m2)])
    k = next(i for i, s in enumerate(cluster) if s.key() == ("M", (1, 2)))
    with pytest.raises(NotFoundWithinBound, match="past the bound 3"):
        mutate(cluster, k, pool)
    assert ("M", (3, 4)) not in pool.provenance
    pool.dim_bound = 4
    step, _ = mutate(cluster, k, pool)
    assert {s.key() for s in step} == {("M", (2, 3)), ("M", (3, 4))}
    assert pool.provenance[("M", (3, 4))] == "mutation-cone"


def test_kronecker_unreachable_is_loud():
    # with bound 1 the module partner of a shifted projective is missing
    # and the constructive route is unavailable for mixed clusters
    pool = build_pool(KRONECKER, 1)
    cluster = canonical_cluster([co(projective(KRONECKER, 2)), sp(KRONECKER, 1)])
    assert is_cluster_tilting(cluster)[0]
    k = next(i for i, s in enumerate(cluster) if s.key() == ("S", (1,)))
    with pytest.raises(NotFoundWithinBound):
        mutate(cluster, k, pool)


def test_bijection_mod_p():
    pool = build_pool(A2, 5)
    for p in (2, 3):
        report = verify_bijection_mod_p(pool, p)
        assert report.ok
        assert len(report.entries) == 5
    pool3 = build_pool(A3, 6)
    assert verify_bijection_mod_p(pool3, 3).ok
    poolk = build_pool(KRONECKER, 4)
    assert verify_bijection_mod_p(poolk, 5).ok


def test_two_cy_symmetry_and_decomposition():
    from clusterforge.rep import ext1_group
    pool = build_pool(A3, 6)
    for x in pool.objects:
        for y in pool.objects:
            assert ext1_c(x, y).free_rank == ext1_c(y, x).free_rank
            assert not ext1_c(x, y).torsion
    for x in pool.modules():
        for y in pool.modules():
            # module-level Ext between rigid lattices is torsion-free too
            assert not ext1_group(x.module, y.module).torsion
            assert ext1_c(x, y).free_rank == \
                ext1_group(x.module, y.module).free_rank \
                + ext1_group(y.module, x.module).free_rank


def test_exchange_triangle_a3_end_vertex():
    # mutating the projective cluster at the sink projective P_3 passes
    # through the adjacent projective: 0 -> P_3 -> P_2 -> S_2 -> 0
    pool = build_pool(A3, 6)
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 0, 1)))
    step, tri = mutate(initial, k, pool)
    assert tri.y.key() == ("M", (0, 1, 0))
    assert [s.key() for s in tri.e_prime] == [("M", (0, 1, 1))]
    assert tri.e_prime_witness == "ses"


def test_exchange_triangles_balance_unsolvable():
    x = co(projective(A2, 2))
    y = co(simple(A2, 1))
    with pytest.raises(BalanceUnsolvable):
        exchange_triangles(x, y, ())


def test_balance_solution_unique():
    # 0 -> P_3 -> P_2 -> S_2 -> 0: dim S_2 + dim P_3 is dim P_2 alone
    p1, p2 = co(projective(A3, 1)), co(projective(A3, 2))
    assert _balance_solution((0, 1, 1), (p1, p2)) == (0, 1)
    assert _balance_solution((1, 2, 2), (p1, p2)) == (1, 1)
    assert _balance_solution((1, 2, 3), (p1, p2)) is None  # not in the span


def test_balance_solution_negative_is_unsolvable():
    # over the complement {sigma P_1} the balance forces multiplicity -1
    complement = (sp(A2, 1),)
    assert _balance_solution((1, 1), complement) is None
    with pytest.raises(BalanceUnsolvable):
        exchange_triangles(co(projective(A2, 2)), co(simple(A2, 1)), complement)


def test_balance_solution_dependent_complement():
    complement = (co(projective(A2, 1)), co(projective(A2, 2)), co(simple(A2, 1)))
    with pytest.raises(PreconditionViolated):
        _balance_solution((1, 1), complement)
    with pytest.raises(PreconditionViolated):
        exchange_triangles(co(projective(A2, 2)), co(simple(A2, 1)), complement)


def test_exchange_triangles_certified_once():
    pool = build_pool(A3, 6)
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 0, 1)))
    clear_caches()
    _, tri = mutate(initial, k, pool)
    assert tri.e_prime_witness == "ses"
    certified = _ses_certified.cache_info().misses
    before = _middle_terms.cache_info()
    again = exchange_triangles(tri.x, tri.y, initial[:k] + initial[k + 1:])
    after = _middle_terms.cache_info()
    assert again == tri
    # the repeated call stops at the middle-term table, so the SES
    # search behind the "ses" witness ran once
    assert after.misses == before.misses
    assert after.hits == before.hits + 1
    assert _ses_certified.cache_info().misses == certified


A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))


@pytest.mark.parametrize("q, edges", [(A3, 42), (A4, 168), (D4, 200)])
def test_exchange_triangles_are_an_involution(q, edges):
    # mutation is an involution: the reverse edge carries the same two
    # triangles with the ends and the middle terms swapped
    g = exchange_graph(q, 6)
    assert len(g.edges) == edges
    for i, _, j, tri in g.edges:
        reverse = [t for a, _, b, t in g.edges if (a, b) == (j, i)
                   and (t.x, t.y, t.e, t.e_prime, t.e_witness, t.e_prime_witness)
                   == (tri.y, tri.x, tri.e_prime, tri.e, tri.e_prime_witness, tri.e_witness)]
        assert len(reverse) == 1


def test_mutating_back_hits_the_middle_terms():
    pool = build_pool(A3, 6)
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1, 1)))
    clear_caches()
    step, tri = mutate(initial, k, pool)
    before = _middle_terms.cache_info()
    back, reverse = mutate(step, step.index(tri.y), pool)
    after = _middle_terms.cache_info()
    assert back == initial
    assert (reverse.e, reverse.e_prime) == (tri.e_prime, tri.e)
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_exchange_graph_closed_form_counts():
    assert [oracles.cluster_count_a(n) for n in (1, 2, 3, 4, 5)] == [2, 5, 14, 42, 132]
    assert [oracles.cluster_count_d(n) for n in (4, 5)] == [50, 182]
    a5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (4, 5)))
    d5 = Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5)))
    for q, expected in ((a5, oracles.cluster_count_a(5)), (d5, oracles.cluster_count_d(5))):
        g = exchange_graph(q, 12)
        assert not g.truncated
        assert len(g.nodes) == expected
        assert len(g.edges) == expected * q.n


A5_MIXED = Quiver(5, ((2, 1), (2, 3), (4, 3), (4, 5)))
A_TILDE_2_1 = Quiver(3, ((1, 2), (2, 3), (1, 3)))
E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
WILD = Quiver(3, ((1, 2), (1, 2), (2, 3)))
THREE_KRONECKER = Quiver(2, ((1, 2), (1, 2), (1, 2)))
D4_AND_KRONECKER = Quiver(6, ((1, 4), (2, 4), (3, 4), (5, 6), (5, 6)))
# (quiver, bound, graph node limit or None for the bare pool); at the
# small bounds the bound cuts Dynkin orbits, whose walks stay open
ORBIT_WALK_POOLS = ((A4, 12, None), (D4, 12, None), (A5_MIXED, 12, None),
                    (KRONECKER, 12, 30), (A_TILDE_2_1, 5, 10000), (E6, 12, None),
                    (WILD, 6, 20), (THREE_KRONECKER, 12, None), (E6, 2, None),
                    (D4_AND_KRONECKER, 1, None))


def _graph_pool(q, bound, max_nodes):
    """The pool together with every summand the exchange graph reaches,
    mutation-cone partners included."""
    objects = {o.key(): o for o in build_pool(q, bound).objects}
    if max_nodes is not None:
        for node in exchange_graph(q, bound, max_nodes).nodes:
            for o in node:
                objects.setdefault(o.key(), o)
    return [objects[k] for k in sorted(objects)]


@pytest.mark.parametrize("q, bound, max_nodes", ORBIT_WALK_POOLS,
                         ids=["A4", "D4", "A5-mixed", "Kronecker", "A~(2,1)", "E6", "wild",
                              "3-Kronecker", "E6-cut", "D4+Kronecker-cut"])
def test_ext1_c_matches_the_orbit_formula_closed_forms(q, bound, max_nodes):
    # the closed forms of hom_c, ext1_c and suspension, read off orbit
    # coordinates on pool lattices, against the orbit sum over f_apply
    # translates, which reduces one intertwining matrix per term
    objects = _graph_pool(q, bound, max_nodes)
    for x in objects:
        assert suspension(x).key() == oracles.orbit_suspension(x).key(), x.describe()
        for y in objects:
            pair = (x.describe(), y.describe())
            assert ext1_c(x, y) == oracles.orbit_ext1_c(x, y), pair
            assert hom_c(x, y) == oracles.orbit_hom_c(x, y), pair


A_TILDE_3_1 = Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
A_TILDE_2_2 = Quiver(4, ((1, 2), (2, 4), (1, 3), (3, 4)))


@pytest.mark.parametrize("q, bound, clusters",
                         ((A_TILDE_2_1, 3, 26), (A_TILDE_3_1, 2, 65), (A_TILDE_2_2, 2, 72)),
                         ids=["A~(2,1)", "A~(3,1)", "A~(2,2)"])
def test_exchange_graph_is_transitive_on_affine_quivers(q, bound, clusters):
    # within the bound, mutation reaches every maximal compatible set of
    # the pool and of the tube modules mutation constructs; those carry
    # no orbit coordinate, so their pairs are eliminated
    g = exchange_graph(q, bound)
    pool = build_pool(q, bound)
    for node in g.nodes:
        for o in node:
            pool.add(o, "graph")
    assert any(o.is_module and o.coord is None for o in pool.objects)
    oracle_nodes = {tuple(s.key() for s in c) for c in oracles.maximal_compatible_sets(pool)}
    assert {tuple(s.key() for s in node) for node in g.nodes} == oracle_nodes
    assert len(oracle_nodes) == clusters


def test_orbit_walk_translates_each_module_once():
    # building the pool walks every orbit once and Ext^1 reads only the
    # first translate of its target, so tau runs once per non-projective
    # module and tau_inv never runs on Dynkin quivers
    clear_caches()
    non_projective = 0
    for q in (D4, A5_MIXED):
        pool = build_pool(q, 12)
        for x in pool.objects:
            for y in pool.objects:
                ext1_c(x, y)
        non_projective += sum(1 for o in pool.modules()
                              if serre.projective_index_of(o.module) is None)
    assert non_projective == 8 + 10
    assert serre.tau.cache_info().misses == non_projective
    assert serre.tau_inv.cache_info().misses == 0


def test_dynkin_pool_ext1_c_reduces_no_matrix():
    # every lattice of a Dynkin pool whose walks close carries an orbit
    # coordinate, so ext1_c reads each pair off dimension vectors
    clear_caches()
    for q in (D4, E6):
        pool = build_pool(q, 12)
        assert all(o.coord is not None for o in pool.modules())
        before = rep._lattice_hom_ext.cache_info().misses
        for x in pool.objects:
            for y in pool.objects:
                ext1_c(x, y)
        assert rep._lattice_hom_ext.cache_info().misses == before


def test_presented_module_never_takes_the_coordinate_path():
    # the presented S_1 of A2 has the dimension vector, and so the key, of
    # the pool lattice I_1, but no orbit coordinate: each of its pairs is
    # reduced, while I_1 reads its pairs off the coordinates
    presented = ZRep(A2, (1, 1), (IntMatrix.zero(1, 0), IntMatrix.from_rows([[1]])),
                     (IntMatrix.from_rows([[1]]),))
    pool = build_pool(A2, 6)
    s1 = co(presented)
    i1 = pool.by_key()[s1.key()]
    assert s1 != i1 and s1.coord is None and i1.coord is not None
    with pytest.raises(PreconditionViolated):
        ClusterObject.from_module(presented, i1.coord)
    clear_caches()
    for y in pool.modules():
        ext1_c(i1, y)
    assert ext1_group.cache_info().misses == hom_group.cache_info().misses == 0
    for y in pool.modules():
        misses = ext1_group.cache_info().misses
        ext1_c(s1, y)
        assert ext1_group.cache_info().misses > misses, y.describe()


TAU_CLOSED_POOLS = ((A4, 1), (D4, 1), (E6, 2), (KRONECKER, 6), (A_TILDE_2_1, 6), (WILD, 6))


@pytest.mark.parametrize("q, bound", TAU_CLOSED_POOLS,
                         ids=["A4", "D4", "E6", "Kronecker", "A~(2,1)", "wild"])
def test_pool_is_closed_under_tau_within_the_bound(q, bound):
    # each orbit walk ends at a projective or at its first translate past
    # the bound, so no sink-reflection pass could add a module
    pool = build_pool(q, bound)
    for obj in pool.modules():
        m = obj.module
        if serre.projective_index_of(m) is not None:
            continue
        t = serre.tau(m)
        assert co(t).key() in pool.provenance or max(dim_vector(t)) > bound, obj.describe()
    assert "reflection" not in pool.provenance.values()


@pytest.mark.parametrize("q, bound", ((KRONECKER, 6), (A_TILDE_2_1, 5), (WILD, 6)),
                         ids=["Kronecker", "A~(2,1)", "wild"])
def test_pool_walks_build_no_translate_past_the_bound(q, bound, monkeypatch):
    # a walk compares the Coxeter transform of its last dimension vector
    # with the bound before it translates, so every translate it builds
    # is in bound and has the predicted dimension vector
    built = []

    def spy(translate, power):
        def spied(m):
            t = translate(m)
            built.append((m, t, power))
            return t
        return spied

    clear_caches()
    monkeypatch.setattr(serre, "tau", spy(serre.tau, 1))
    monkeypatch.setattr(serre, "tau_inv", spy(serre.tau_inv, -1))
    build_pool(q, bound)
    assert {power for _, _, power in built} == {1, -1}
    for m, t, power in built:
        assert max(dim_vector(t)) <= bound, dim_vector(t)
        assert dim_vector(t) == coxeter_apply(m.quiver, dim_vector(m), power)


# witness counts over both sides of every directed edge: balance,
# connecting-iso and ses; graph --format structured prints only e/e'
WITNESS_GRAPHS = (
    (A4, 12, 10000, 168, {"balance": 166, "connecting-iso": 98, "ses": 72}),
    (D4, 12, 10000, 200, {"balance": 196, "connecting-iso": 104, "ses": 100}),
    (A5_MIXED, 12, 10000, 660, {"balance": 654, "connecting-iso": 336, "ses": 330}),
    (KRONECKER, 6, 8, 14, {"balance": 6, "connecting-iso": 14, "ses": 8}),
)
WITNESS_IDS = ["A4", "D4", "A5-mixed", "Kronecker"]


def _triangle_sides(g):
    # (tail, head, middle, witness) of y -> E -> x and x -> E' -> y
    for _, _, _, tri in g.edges:
        yield tri.y, tri.x, tri.e, tri.e_witness
        yield tri.x, tri.y, tri.e_prime, tri.e_prime_witness


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", WITNESS_GRAPHS, ids=WITNESS_IDS)
def test_exchange_graph_witness_counts(q, bound, max_nodes, edges, counts):
    g = exchange_graph(q, bound, max_nodes)
    assert len(g.edges) == edges
    seen = {}
    for _, _, _, witness in _triangle_sides(g):
        seen[witness] = seen.get(witness, 0) + 1
    assert seen == counts


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", WITNESS_GRAPHS, ids=WITNESS_IDS)
def test_ses_witness_iff_module_ext1_rank_one(q, bound, max_nodes, edges, counts):
    # independent of Hom bases: an all-module triangle tail -> E -> head
    # is a nonsplit short exact sequence exactly when the module
    # Ext^1(head, tail) carries its class, free of rank one here; the
    # balance-only all-module triangles have Ext^1 = 0
    g = exchange_graph(q, bound, max_nodes)
    checked = 0
    for tail, head, middle, witness in _triangle_sides(g):
        if not (tail.is_module and head.is_module and middle
                and all(c.is_module for c in middle)):
            continue
        ext = ext1_group(head.module, tail.module)
        assert (witness == "ses") == (ext == FinAbGroup(1)), \
            (tail.describe(), head.describe(), witness, str(ext))
        if witness != "ses":
            assert ext.is_trivial
        checked += 1
    assert checked >= counts["ses"]


def test_ses_certified_past_four_hom_basis_maps():
    # 3-Kronecker: 0 -> P_2 -> P_1^3 -> tau^-1 P_2 -> 0 with dims
    # (0,1), (1,3) and (3,8); Hom(P_2, P_1^3) = Z^9, so the certificate
    # must handle nine basis maps
    from clusterforge.serre import tau_inv
    k3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))
    p1, p2 = projective(k3, 1), projective(k3, 2)
    head = tau_inv(p2)
    assert (dim_vector(p1), dim_vector(p2), dim_vector(head)) == ((1, 3), (0, 1), (3, 8))
    assert hom_group(p2, p1).group == FinAbGroup(3)
    assert _ses_certified(co(p2), co(head), (co(p1),) * 3)
    # a wrong multiplicity is no SES
    assert not _ses_certified(co(p2), co(head), (co(p1),) * 2)


# witness counts of graphs whose exchange triangles are never read for
# their witnesses: A4 and D4 as pinned above, and K2 at bound 16
LAZY_WITNESS_GRAPHS = (
    WITNESS_GRAPHS[0],
    WITNESS_GRAPHS[1],
    (KRONECKER, 16, 1000, 64, {"balance": 8, "connecting-iso": 64, "ses": 56}),
)


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", LAZY_WITNESS_GRAPHS,
                         ids=["A4", "D4", "Kronecker-16"])
def test_witnesses_are_computed_when_read(q, bound, max_nodes, edges, counts):
    # exploring certifies no sequence; the first read of a witness does,
    # and gives the witness an eager certification gave
    clear_caches()
    g = exchange_graph(q, bound, max_nodes)
    assert len(g.edges) == edges
    calls = _ses_certified.cache_info()
    assert calls.hits + calls.misses == 0
    seen = {}
    for _, _, _, witness in _triangle_sides(g):
        seen[witness] = seen.get(witness, 0) + 1
    assert seen == counts
    assert _ses_certified.cache_info().misses > 0


def test_exchange_graph_makes_no_dense_solve(monkeypatch):
    # a work count, not a time: on A4 and D4 every balance solve splits
    # on unit pivots and no witness is certified, so the only dense
    # eliminations left are the translate kernels, which track v_inv;
    # a dense solve (u_inv) or an SES certification (U, in
    # free_cokernel) shows here
    tracked = []
    inner = zlinalg._eliminate

    def counted(mat, track=()):
        tracked.append(tuple(track))
        return inner(mat, track)

    clear_caches()
    monkeypatch.setattr(zlinalg, "_eliminate", counted)
    for q in (A4, D4):
        exchange_graph(q, 12)
    assert tracked
    assert not [t for t in tracked if "u_inv" in t or "U" in t]


# (quiver, bound, node limit, whether the pool grows through mutation cones)
PARTNER_GRAPHS = ((A4, 12, 10000, False), (D4, 12, 10000, False), (KRONECKER, 16, 1000, False),
                  (A_TILDE_2_1, 5, 10000, True), (WILD, 6, 20, True))


@pytest.mark.parametrize("q, bound, max_nodes, grows", PARTNER_GRAPHS,
                         ids=["A4", "D4", "Kronecker-16", "A~(2,1)", "wild"])
def test_partner_rows_equal_the_pool_scan(q, bound, max_nodes, grows, monkeypatch):
    # at every mutation the partner rows give what a scan of every pool
    # object gives, as the pool grows; so, through the same check, does a
    # pool rebuilt from its objects alone, whose bits follow key order
    rows = RigidPool.partners
    sizes = []

    def checked(pool, x, others):
        found = rows(pool, x, others)
        scan = oracles.partner_scan(pool.objects, x, others)
        assert sorted(y.key() for y in found) == [y.key() for y in scan], x.describe()
        sizes.append(len(pool.objects))
        return found

    clear_caches()
    monkeypatch.setattr(RigidPool, "partners", checked)
    start = len(build_pool(q, bound).objects)
    g = exchange_graph(q, bound, max_nodes)
    assert len(sizes) == len(g.nodes) * q.n
    assert (sizes[-1] > start) == grows
    grown = build_pool(q, bound)
    for node in g.nodes:
        for o in node:
            grown.add(o, "graph")
    rebuilt = RigidPool(q, bound, objects=grown.objects)
    assert not rebuilt.add(grown.objects[0], "again")
    for node in g.nodes:
        for k in range(q.n):
            rebuilt.partners(node[k], node[:k] + node[k + 1:])


def test_exchange_graph_work_counts(monkeypatch):
    # on A4 and D4 the partner rows test the pairs the pool scan tested,
    # each once, and each undirected edge is balanced once: the reverse
    # mutation reads the same middle-term entry
    balances = []
    inner = cluster_module._balance_solution

    def counted(target, complement):
        balances.append(target)
        return inner(target, complement)

    clear_caches()
    monkeypatch.setattr(cluster_module, "_balance_solution", counted)
    for q, undirected in ((A4, 84), (D4, 100)):
        before = _middle_terms.cache_info()
        g = exchange_graph(q, 12)
        after = _middle_terms.cache_info()
        assert len(g.edges) == 2 * undirected
        assert after.misses - before.misses == after.hits - before.hits == undirected
    lookups = ext1_c.cache_info()
    assert lookups.misses == 452
    assert lookups.hits + lookups.misses == 7373
    assert len(balances) == 84 + 100
