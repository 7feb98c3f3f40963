from collections import Counter

import pytest

from clusterforge import clear_caches, cli, verify, zlinalg
from clusterforge.errors import (
    BalanceUnsolvable,
    ConstructionFailed,
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
    _class_matrix,
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


def _classes_sum(objects) -> tuple:
    return tuple(map(sum, zip(*(o.dim_c() for o in objects))))


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


def test_a_certificate_lists_failures_in_summand_order():
    # a list, a generator and a tuple of the same summands give the same
    # certificate, and another order lists its failures in that order
    p1, p2, s1 = co(projective(A2, 1)), co(projective(A2, 2)), sp(A2, 1)
    first = is_cluster_tilting([p1, s1, p2])
    assert first == (False, ("expected 2 summands, got 3",
                             "Ext1(M[1, 1], SP1) = Z^1", "Ext1(SP1, M[1, 1]) = Z^1"))
    assert is_cluster_tilting(s for s in (p1, s1, p2)) == first
    assert is_cluster_tilting((p1, s1, p2)) == first
    swapped = is_cluster_tilting([s1, p1, p2])
    assert swapped[1] == ("expected 2 summands, got 3",
                          "Ext1(SP1, M[1, 1]) = Z^1", "Ext1(M[1, 1], SP1) = Z^1")


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


def test_mutate_construct_refuses_what_is_no_cluster_of_lattices():
    # P_3, P_2 and S_1 of A3 are no cluster (Ext^1_C(S_1, P_2) = Z); the
    # construction reads the certificate first and builds nothing
    a3 = [co(projective(A3, 3)), co(projective(A3, 2)), co(simple(A3, 1))]
    with pytest.raises(PreconditionViolated, match="cluster-tilting object"):
        mutate_construct(a3, 0)
    # P_1 of A2 presented with a relation is exceptional but no lattice
    presented = ZRep(A2, (1, 2), (IntMatrix.zero(1, 0), IntMatrix.from_rows([[1], [1]], cols=1)),
                     (IntMatrix.from_rows([[1], [0]], cols=1),))
    a2 = [co(presented), co(projective(A2, 2))]
    assert not a2[0].module.is_lattice and is_cluster_tilting(a2)[0]
    for k in (0, 1):
        with pytest.raises(PreconditionViolated, match="lattice summands"):
            mutate_construct(a2, k)
    with pytest.raises(PreconditionViolated, match="position 2 out of range"):
        mutate_construct(canonical_cluster([co(projective(A2, i)) for i in A2.vertices]), 2)


def test_exchange_triangle_balance():
    pool = build_pool(A3, 6)
    g = exchange_graph(A3, 6, 100)
    for i, k, j, tri in g.edges:
        target = tuple(a + b for a, b in zip(tri.x.dim_c(), tri.y.dim_c()))
        for multiset, tail, head in ((tri.e, tri.y, tri.x), (tri.e_prime, tri.x, tri.y)):
            if tail.suspended().key() == head.key():
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
    # projective; the last such miss names the reason, its partner's
    # class past the bound, and both causes count
    g = exchange_graph(KRONECKER, 1, 3)
    assert g.truncated
    assert g.truncations == (("node-limit", 1), ("not-found-within-bound", 2))
    assert g.truncation_reason == "exchange partner M[1, 2] of SP1 lies past the bound 1"


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


def test_two_survivors_raise_without_a_construction(count_calls):
    # P_2 and S_1 of A2 are no cluster, though both P_1 and sigma P_2 are
    # compatible with S_1: mutate reads the tilting certificate of its
    # input first and refuses it before predicting or building a partner
    constructions = count_calls(cluster_module, "mutate_construct")
    pool = build_pool(A2, 5)
    summands = (co(projective(A2, 2)), co(simple(A2, 1)))
    assert is_cluster_tilting(summands) == (
        False, ("Ext1(M[0, 1], M[1, 0]) = Z^1", "Ext1(M[1, 0], M[0, 1]) = Z^1"))
    with pytest.raises(PreconditionViolated, match=r"cluster-tilting object: \('Ext1\(M\[0, 1\]"):
        mutate(summands, 0, pool)
    assert constructions == []


def test_a_survivor_off_rank_one_raises_without_a_construction(count_calls):
    # P_2 and S_1 of A3 are not compatible, so P_3 next to them is no
    # cluster, and its one compatible pool object P_1 has
    # Ext^1_C(P_3, P_1) = 0: the certificate refuses the input first
    constructions = count_calls(cluster_module, "mutate_construct")
    pool = build_pool(A3, 6)
    summands = tuple(pool.find(("M", d)) for d in ((0, 0, 1), (0, 1, 1), (1, 0, 0)))
    ok, cert = is_cluster_tilting(summands)
    assert not ok and "Ext1(M[1, 0, 0], M[0, 1, 1]) = Z^1" in cert
    with pytest.raises(PreconditionViolated, match="cluster-tilting object"):
        mutate(summands, 0, pool)
    assert constructions == []


def test_exchange_graph_needs_one_node():
    for max_nodes in (0, -3):
        with pytest.raises(PreconditionViolated, match="max_nodes must be at least 1"):
            exchange_graph(A4, 12, max_nodes)
    assert len(exchange_graph(A4, 12, 1).nodes) == 1


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
    # a nonsplit sequence: module Ext^1(S_2, P_3) = Z, and the middle
    # term balances the ends
    assert ext1_group(tri.y.module, tri.x.module) == FinAbGroup(1)
    assert tri.x.dim_c() == (0, 0, 1) and _classes_sum(tri.e_prime) == (0, 1, 1)


def test_exchange_triangles_balance_unsolvable():
    # {sigma P_1, P_2} is a seed of A2, but S_1 is not the partner of P_2
    # there: Ext^1_C(sigma P_1, S_1) = Z.  The exchange matrix predicts
    # the class -dim P_2 of sigma P_2
    x, y, complement = co(projective(A2, 2)), co(simple(A2, 1)), (sp(A2, 1),)
    assert not ext1_c(complement[0], y).is_trivial
    with pytest.raises(BalanceUnsolvable,
                       match=r"M\[1, 0\] is not of the class \(0, -1\) predicted"):
        exchange_triangles(x, y, complement)


def test_exchange_triangles_need_a_seed():
    # the complement and x must make n summands whose classes are a basis
    x, y = co(projective(A2, 2)), co(simple(A2, 1))
    with pytest.raises(PreconditionViolated, match="a seed has 2 summands, not 1"):
        exchange_triangles(x, y, ())
    with pytest.raises(PreconditionViolated, match="not a seed"):
        exchange_triangles(x, y, (sp(A2, 2),))


def test_balance_solution_unique():
    # the balance oracle: 0 -> P_3 -> P_2 -> S_2 -> 0, so dim S_2 + dim
    # P_3 is dim P_2 alone
    p1, p2 = co(projective(A3, 1)), co(projective(A3, 2))
    assert oracles.balance_solution((0, 1, 1), (p1, p2)) == (0, 1)
    assert oracles.balance_solution((1, 2, 2), (p1, p2)) == (1, 1)
    assert oracles.balance_solution((1, 2, 3), (p1, p2)) is None  # not in the span


def test_balance_solution_negative_is_unsolvable():
    # over the complement {sigma P_1} the balance forces multiplicity -1
    complement = (sp(A2, 1),)
    assert oracles.balance_solution((1, 1), complement) is None
    with pytest.raises(BalanceUnsolvable):
        exchange_triangles(co(projective(A2, 2)), co(simple(A2, 1)), complement)


def test_balance_solution_dependent_complement():
    complement = (co(projective(A2, 1)), co(projective(A2, 2)), co(simple(A2, 1)))
    with pytest.raises(PreconditionViolated):
        oracles.balance_solution((1, 1), complement)
    with pytest.raises(PreconditionViolated):
        exchange_triangles(co(projective(A2, 2)), co(simple(A2, 1)), complement)


def test_exchange_triangles_certified_once(count_calls):
    # a lone exchange_triangles call gives the triangles mutate gave,
    # reading the class matrix of its seed by one solve
    pool = build_pool(A3, 6)
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 0, 1)))
    clear_caches()
    _, tri = mutate(initial, k, pool)
    solves = count_calls(zlinalg, "_solve")
    again = exchange_triangles(tri.x, tri.y, initial[:k] + initial[k + 1:])
    assert again == tri
    assert len(solves) == 1


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
                   and (t.x, t.y, t.e, t.e_prime) == (tri.y, tri.x, tri.e_prime, tri.e)]
        assert len(reverse) == 1


def test_mutating_back_reads_the_carried_matrix(count_calls):
    # the lone projective cluster gets its class matrix, one solve; the
    # way back reads the matrix mutate carried and solves nothing, and
    # the carried matrix is the class matrix of the cluster reached
    pool = build_pool(A3, 6)
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1, 1)))
    clear_caches()
    solves = count_calls(zlinalg, "_solve")
    step, tri = mutate(initial, k, pool)
    assert len(solves) == 1
    back, reverse = mutate(step, step.index(tri.y), pool)
    assert len(solves) == 1
    assert back == initial
    assert (reverse.e, reverse.e_prime) == (tri.e_prime, tri.e)
    assert pool.matrices[pool.ids(back)] == _class_matrix(initial)
    assert pool.matrices[pool.ids(step)] == _class_matrix(step)


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


def test_generalized_catalan_numbers():
    assert [oracles.cluster_count("A", n) for n in range(1, 9)] \
        == [oracles.cluster_count_a(n) for n in range(1, 9)]
    assert [oracles.cluster_count("D", n) for n in range(4, 9)] \
        == [oracles.cluster_count_d(n) for n in range(4, 9)]
    assert [oracles.cluster_count("E", n) for n in (6, 7, 8)] == [833, 4160, 25080]


E6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))


def test_e6_exchange_graph_closes_on_the_catalan_count():
    g = exchange_graph(E6, 12)
    assert not g.truncated
    assert len(g.nodes) == oracles.cluster_count("E", 6) == 833
    assert len(g.edges) == 6 * 833 == 4998
    assert Counter(i for i, _, _, _ in g.edges) == Counter({i: 6 for i in range(833)})
    assert Counter(j for _, _, j, _ in g.edges) == Counter({j: 6 for j in range(833)})


def test_e7_exchange_graph_closes_on_the_catalan_count():
    g = exchange_graph(E7, 12)
    assert not g.truncated
    assert len(g.nodes) == oracles.cluster_count("E", 7) == 4160
    assert len(g.edges) == 7 * 4160 == 29120
    assert Counter(i for i, _, _, _ in g.edges) == Counter({i: 7 for i in range(4160)})


A5_MIXED = Quiver(5, ((2, 1), (2, 3), (4, 3), (4, 5)))
A_TILDE_2_1 = Quiver(3, ((1, 2), (2, 3), (1, 3)))
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


@pytest.mark.parametrize("q, bound, roots", (
    (E6, 12, 36), (A5_MIXED, 12, 15), (KRONECKER, 16, 31), (A_TILDE_2_1, 5, 20),
    (A_TILDE_2_2, 4, 33),
), ids=["E6@12", "A5-mixed@12", "Kronecker@16", "A~(2,1)@5", "A~(2,2)@4"])
def test_c_vectors_are_classes_of_pool_or_graph_objects(q, bound, roots):
    # the c-vectors of an acyclic quiver are, up to sign, real Schur roots
    # (Speyer-Thomas, Acyclic cluster algebras revisited, 2013), so each
    # one within the bound that the oracle's walk over seeds meets is the
    # dimension vector of an exceptional module, and an object of the
    # pool or of the exchange graph holds it.  Not run on 1=>2->3: at
    # bound 6 the graph lacks (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 0),
    # (5, 4, 0) and (6, 5, 0), since a cluster holding a suspended
    # projective refuses a partner the pool lacks and the pool lacks the
    # rigid modules off the translate orbits of the projectives and
    # injectives
    found = {tuple(abs(a) for a in c) for c in oracles.c_vectors(q, bound)}
    within = {c for c in found if max(c) <= bound}
    assert len(within) == roots
    g = exchange_graph(q, bound)
    classes = {o.dim_c() for o in build_pool(q, bound).objects}
    assert within <= classes | {s.dim_c() for node in g.nodes for s in node}


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


def test_orbit_walk_translates_each_module_once(count_calls):
    # building the pool walks dimension vectors only and ext1_c reads the
    # coordinates, so neither translates; reading the modules walks each
    # orbit through pool modules, so translating every non-projective
    # module afterwards runs tau once per non-projective module, and
    # tau_inv never runs on Dynkin quivers
    clear_caches()
    pools = [build_pool(q, 12) for q in (D4, A5_MIXED)]
    for pool in pools:
        for x in pool.objects:
            for y in pool.objects:
                ext1_c(x, y)
    tau = serre.tau
    assert tau.cache_info().misses == serre.tau_inv.cache_info().misses == 0
    translated = count_calls(serre, "tau")
    non_projective = [o.module for pool in pools for o in pool.modules()
                      if serre.projective_index_of(o.module) is None]
    assert len(non_projective) == 8 + 10
    assert {m for m, in translated} <= set(non_projective)
    for m in non_projective:
        tau(m)
    assert tau.cache_info().misses == len(non_projective)
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
    i1 = pool.find(s1.key())
    assert s1 != i1 and s1.coord is None and i1.coord is not None
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
    # with the bound before it steps, and build_pool walks dimension
    # vectors only; the modules, built when read, walk the same orbits,
    # so every translate built is in bound and has the predicted
    # dimension vector
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
    pool = build_pool(q, bound)
    assert built == []
    for obj in pool.modules():
        obj.module
    assert {power for _, _, power in built} == {1, -1}
    for m, t, power in built:
        assert max(dim_vector(t)) <= bound, dim_vector(t)
        assert dim_vector(t) == coxeter_apply(m.quiver, dim_vector(m), power)


# the kinds of both sides of every directed edge: "suspension" when the
# middle term is empty and the suspension of the tail is the head, "ses"
# when tail, head and middle are modules and module Ext^1(head, tail) is
# Z, "other" otherwise; graph --format structured prints only e/e'
SIDE_GRAPHS = (
    (A4, 12, 10000, 168, {"other": 166, "suspension": 98, "ses": 72}),
    (D4, 12, 10000, 200, {"other": 196, "suspension": 104, "ses": 100}),
    (A5_MIXED, 12, 10000, 660, {"other": 654, "suspension": 336, "ses": 330}),
    (KRONECKER, 6, 8, 14, {"other": 6, "suspension": 14, "ses": 8}),
)
SIDE_IDS = ["A4", "D4", "A5-mixed", "Kronecker"]


def _triangle_sides(g):
    # (tail, head, middle) of y -> E -> x and x -> E' -> y
    for _, _, _, tri in g.edges:
        yield tri.y, tri.x, tri.e
        yield tri.x, tri.y, tri.e_prime


def _side_kind(tail, head, middle):
    if not middle and tail.suspended().key() == head.key():
        return "suspension"
    if (tail.is_module and head.is_module and all(c.is_module for c in middle)
            and ext1_group(head.module, tail.module) == FinAbGroup(1)):
        return "ses"
    return "other"


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", SIDE_GRAPHS, ids=SIDE_IDS)
def test_exchange_graph_witness_counts(q, bound, max_nodes, edges, counts):
    g = exchange_graph(q, bound, max_nodes)
    assert len(g.edges) == edges
    assert Counter(_side_kind(*side) for side in _triangle_sides(g)) == counts


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", SIDE_GRAPHS, ids=SIDE_IDS)
def test_ses_witness_iff_module_ext1_rank_one(q, bound, max_nodes, edges, counts):
    # independent of Hom bases: an all-module triangle tail -> E -> head
    # whose module Ext^1(head, tail) is Z is a nonsplit short exact
    # sequence, so E balances tail + head, and its first map is the left
    # approximation of the tail (Buan-Marsh-Reineke-Reiten-Todorov
    # 2006), so E holds each summand c rank Hom(tail, c) times; the
    # other all-module triangles with a middle term have Ext^1 = 0
    g = exchange_graph(q, bound, max_nodes)
    sequences = 0
    for tail, head, middle in _triangle_sides(g):
        if not (tail.is_module and head.is_module and middle
                and all(c.is_module for c in middle)):
            continue
        ext = ext1_group(head.module, tail.module)
        if ext != FinAbGroup(1):
            assert ext.is_trivial, (tail.describe(), head.describe(), str(ext))
            continue
        sequences += 1
        assert _classes_sum(middle) == tuple(
            a + b for a, b in zip(tail.dim_c(), head.dim_c()))
        for c, times in Counter(middle).items():
            assert hom_group(tail.module, c.module).group == FinAbGroup(times)
    assert sequences == counts["ses"]


K3 = Quiver(2, ((1, 2), (1, 2), (1, 2)))


def test_three_kronecker_cone_is_the_minimal_approximation(count_calls):
    # 3-Kronecker: 0 -> P_2 -> P_1^3 -> tau^-1 P_2 -> 0 with dims (0,1),
    # (1,3) and (3,8); Hom(P_2, P_1) = Z^3 and no other summand is there
    # to factor through, so the minimal approximation lifts the three
    # basis maps, one into each copy of P_1, and its cokernel is tau^-1 P_2
    p1, p2 = projective(K3, 1), projective(K3, 2)
    assert (dim_vector(p1), dim_vector(p2), dim_vector(tau_inv(p2))) == ((1, 3), (0, 1), (3, 8))
    assert hom_group(p2, p1).group == FinAbGroup(3)
    cluster = canonical_cluster([co(p1), co(p2)])
    cokernels = count_calls(rep, "cokernel_rep")
    y = mutate_construct(cluster, cluster.index(co(p2)))
    assert y.key() == co(tau_inv(p2)).key() and rep.is_exceptional(y.module)
    (m, e, maps), = cokernels
    assert m is p2 and dim_vector(e) == (3, 9)
    assert [f.rows for f in maps] == [3, 9]


def test_a_quotient_not_of_the_predicted_rank_raises(monkeypatch):
    # fake one multiplicity on the 3-Kronecker cluster {P_1, P_2}: a
    # middle term P_1^2 for P_2 is no quotient of Hom(P_2, P_1) = Z^3 by
    # maps through other summands, so no cone is built
    predicted = cluster_module._predicted_partner

    def faked(ids, classes, column, i, x):
        middle, cls, eps = predicted(ids, classes, column, i, x)
        return middle[1:], cls, eps

    monkeypatch.setattr(cluster_module, "_predicted_partner", faked)
    cokernels = []
    monkeypatch.setattr(rep, "cokernel_rep", lambda *args: cokernels.append(args))
    cluster = canonical_cluster([co(projective(K3, 1)), co(projective(K3, 2))])
    with pytest.raises(ConstructionFailed, match=r"is Z\^3, not free of rank 2"):
        mutate_construct(cluster, cluster.index(co(projective(K3, 2))))
    assert cokernels == []


# side kinds of graphs explored without reading a side: A4 and D4 as
# pinned above, and K2 at bound 16
LAZY_SIDE_GRAPHS = (
    SIDE_GRAPHS[0],
    SIDE_GRAPHS[1],
    (KRONECKER, 16, 1000, 64, {"other": 8, "suspension": 64, "ses": 56}),
)


@pytest.mark.parametrize("q, bound, max_nodes, edges, counts", LAZY_SIDE_GRAPHS,
                         ids=["A4", "D4", "Kronecker-16"])
def test_witnesses_are_computed_when_read(q, bound, max_nodes, edges, counts, count_calls):
    # exploring computes no module Ext^1, no approximation and no
    # construction; the kind of each side is computed when it is read,
    # with the counts pinned above
    clear_caches()
    module_ext1 = count_calls(rep, "ext1_group")
    approximations = count_calls(cluster_module, "_approximation_maps")
    constructions = count_calls(cluster_module, "mutate_construct")
    g = exchange_graph(q, bound, max_nodes)
    assert len(g.edges) == edges
    assert (module_ext1, approximations, constructions) == ([], [], [])
    assert Counter(_side_kind(*side) for side in _triangle_sides(g)) == counts


def test_exchange_graph_makes_no_dense_solve(count_calls):
    # a work count, not a time: on A4 and D4 the middle terms are read
    # off carried exchange matrices and no module is built, so no
    # elimination is left: a dense solve (u_inv), an approximation
    # cokernel (U, in free_cokernel) or a translate kernel (v_inv) shows
    # here
    clear_caches()
    tracked = count_calls(zlinalg, "_eliminate")
    for q in (A4, D4):
        exchange_graph(q, 12)
    assert tracked == []


# (quiver, bound, node limit, whether the pool grows through mutation cones)
PARTNER_GRAPHS = ((A4, 12, 10000, False), (D4, 12, 10000, False), (KRONECKER, 16, 1000, False),
                  (A_TILDE_2_1, 5, 10000, True), (WILD, 6, 20, True))


@pytest.mark.parametrize("q, bound, max_nodes, grows", PARTNER_GRAPHS,
                         ids=["A4", "D4", "Kronecker-16", "A~(2,1)", "wild"])
def test_partner_rows_equal_the_pool_scan(q, bound, max_nodes, grows, monkeypatch):
    # at every (node, position) a partner mutate takes from the pool is
    # the only exchange partner a scan of every pool object finds at that
    # moment, and the scan finds none where mutate builds a cone or
    # refuses; the pool grows through the cones alone.  A pool rebuilt
    # from the grown pool's objects finds each by its key
    step = cluster_module.mutate
    sizes = []

    def checked(summands, k, pool):
        held = pool.objects
        others = summands[:k] + summands[k + 1:]
        scan = [y.key() for y in oracles.partner_scan(held, summands[k], others)]
        sizes.append(len(held))
        try:
            result = step(summands, k, pool)
        except NotFoundWithinBound:
            assert scan == [], summands[k].describe()
            raise
        y = result[1].y
        assert scan == ([y.key()] if any(o is y for o in held) else []), summands[k].describe()
        return result

    clear_caches()
    monkeypatch.setattr(cluster_module, "mutate", checked)
    start = len(build_pool(q, bound).objects)
    g = exchange_graph(q, bound, max_nodes)
    assert len(sizes) == len(g.nodes) * q.n
    assert (sizes[-1] > start) == grows
    grown = build_pool(q, bound)
    for node in g.nodes:
        for o in node:
            grown.add(o, "graph")
    rebuilt = RigidPool(q, bound)
    for o in grown.objects:
        rebuilt.add(o, grown.provenance[o.key()])
    assert rebuilt.provenance == grown.provenance
    assert not rebuilt.add(grown.objects[0], "again")
    assert all(rebuilt.find(o.key()) is o for o in grown.objects)


def test_exchange_graph_work_counts(count_calls):
    # on A4 and D4 ext1_c is asked by the tilting certificates and the
    # rank-one tests alone, each partner is looked up by its predicted
    # class, and the middle terms are read off the exchange matrices that
    # mutate carries from the projective cluster's, so no class matrix
    # and no integer system is solved.  Only the two projective clusters
    # get the full certificate, 16 lookups each; each of the other
    # 41 + 49 clusters is certified from the cluster it was first reached
    # from by the 2n - 1 = 7 lookups that involve the new summand, and
    # each of the 168 + 200 mutations asks one rank-one test, 1,030
    # lookups for the 448 groups of pairs inside a cluster.  Each of the
    # 14 + 16 pool objects has its suspension built once
    clear_caches()
    certificates = count_calls(cluster_module, "is_cluster_tilting")
    solves = count_calls(zlinalg, "_solve")
    class_matrices = count_calls(cluster_module, "_class_matrix")
    suspended = count_calls(cluster_module, "suspension")
    for q, undirected in ((A4, 84), (D4, 100)):
        g = exchange_graph(q, 12)
        assert len(g.edges) == 2 * undirected
    lookups = ext1_c.cache_info()
    assert lookups.misses == 448
    assert lookups.hits + lookups.misses == 2 * 16 + (41 + 49) * 7 + 168 + 200 == 1030
    assert len(certificates) == 2
    assert solves == []
    assert class_matrices == []
    assert len(suspended) == len({id(x) for x, in suspended}) == 14 + 16


# the tier-1 exchange graphs: (quiver, bound, node limit)
SEED_GRAPHS = ((A3, 6, 10000), (A4, 12, 10000), (D4, 12, 10000), (A5_MIXED, 12, 10000),
               (KRONECKER, 6, 8), (KRONECKER, 16, 1000), (A_TILDE_2_1, 5, 10000),
               (WILD, 6, 20))


@pytest.mark.parametrize("q, bound, max_nodes", SEED_GRAPHS,
                         ids=["A3", "A4", "D4", "A5-mixed", "Kronecker@6/8", "Kronecker@16",
                              "A~(2,1)@5", "1=>2->3@6/20"])
def test_every_node_passes_the_full_certificate(q, bound, max_nodes):
    # mutate certifies a new cluster from its certified parent by the
    # 2n - 1 Ext^1_C lookups that involve the new summand; the full n^2
    # certificate passes on every node
    for node in exchange_graph(q, bound, max_nodes).nodes:
        assert is_cluster_tilting(node) == (True, ())


@pytest.mark.parametrize("pair", [("M[1, 0, 0]", "M[1, 1, 1]"), ("M[1, 1, 1]", "M[1, 0, 0]")])
def test_a_failed_parent_certificate_raises_the_full_certificate(monkeypatch, pair):
    # S1 = M[1,0,0] replaces P2 = M[0,1,1] in the projective cluster of
    # 1 -> 2 -> 3; with Ext^1_C(S1, P1) or Ext^1_C(P1, S1) made non-trivial
    # the parent certificate fails, and mutate raises with the text of
    # the full one
    initial = canonical_cluster([co(projective(A3, i)) for i in A3.vertices])
    k = next(i for i, s in enumerate(initial) if s.key() == ("M", (0, 1, 1)))
    real = cluster_module.ext1_c

    def faked(a, b):
        if (a.describe(), b.describe()) == pair:
            return FinAbGroup(1)
        return real(a, b)

    monkeypatch.setattr(cluster_module, "ext1_c", faked)
    with pytest.raises(ConstructionFailed) as failed:
        mutate(initial, k, build_pool(A3, 6))
    new = canonical_cluster(initial[:k] + initial[k + 1:] + (co(simple(A3, 1)),))
    ok, cert = is_cluster_tilting(new)
    assert (ok, cert) == (False, (f"Ext1({pair[0]}, {pair[1]}) = Z^1",))
    assert str(failed.value) == f"candidate fails the cluster-tilting check: {cert}"


def _candidates(node, b, k):
    """E_B and E'_B of the k-th summand: c taken [b_ck]+ and [b_kc]+ times."""
    others = [(j, c) for j, c in enumerate(node) if j != k]
    return (tuple(c for j, c in others for _ in range(b[j][k])),
            tuple(c for j, c in others for _ in range(b[k][j])))


def _signed_candidate(node, b, k):
    """E_B when the c-vector of the k-th summand, column k of the rows of
    C under those of B, is nonpositive, and E'_B when it is nonnegative."""
    e_b, e_prime_b = _candidates(node, b, k)
    return e_b if max(row[k] for row in b[len(node):]) <= 0 else e_prime_b


def _predicted_class(node, b, k):
    """The class of the partner of the k-th summand by the g-vector
    recursion: the classes of the signed candidate less the summand's."""
    return tuple(sum(c.dim_c()[v] for c in _signed_candidate(node, b, k)) - node[k].dim_c()[v]
                 for v in range(len(node)))


@pytest.mark.parametrize("q, bound, max_nodes", SEED_GRAPHS,
                         ids=["A3", "A4", "D4", "A5-mixed", "Kronecker@6/8", "Kronecker@16",
                              "A~(2,1)@5", "1=>2->3@6/20"])
def test_carried_exchange_matrices(q, bound, max_nodes):
    # on every edge the [B; C] carried to the target is the oracle's FZ
    # mutation of the source's, columns and the rows of B in the target's
    # key order, and equals the target's class matrix; every c-vector is
    # sign-coherent, and the candidate its sign picks is the balance
    # oracle's middle term for the certified partner.  E_B and E'_B share
    # no summand, and the printed middle terms are the balance oracle's,
    # or empty when the suspension of the tail is the head
    g = exchange_graph(q, bound, max_nodes)
    n = q.n
    assert g.exchange_matrices[0] == _class_matrix(g.nodes[0])
    for b in g.exchange_matrices:
        assert all(max(c) <= 0 or min(c) >= 0 for c in zip(*b[n:]))
    for i, k, j, tri in g.edges:
        source, target = g.nodes[i], g.nodes[j]
        b = g.exchange_matrices[i]
        assert tri.x is source[k]
        mutated = oracles.fz_mutate(b, k)
        place = {s.key(): a for a, s in enumerate(source)}
        place[tri.y.key()] = k
        order = [place[s.key()] for s in target]
        rows = [mutated[r] for r in order] + mutated[n:]
        assert g.exchange_matrices[j] == tuple(tuple(row[c] for c in order) for row in rows)
        assert g.exchange_matrices[j] == _class_matrix(target)
        e_b, e_prime_b = _candidates(source, b, k)
        assert not {c.key() for c in e_b} & {c.key() for c in e_prime_b}
        complement = source[:k] + source[k + 1:]
        middle = oracles.balanced_middle(tri.x, tri.y, complement)
        assert _signed_candidate(source, b, k) == middle
        assert tri.e == (() if tri.y.suspended().key() == tri.x.key() else middle)
        assert tri.e_prime == (() if tri.x.suspended().key() == tri.y.key() else middle)


def test_a3_exchange_matrix_middle_terms():
    # x = P_2 = M[0,1,1] leaving the projective cluster of 1 -> 2 -> 3 for
    # y = S_1: E_B = P_3, since P_3 -> P_2 is the right add(P_1, P_3)-
    # approximation, and E'_B = P_1; only E'_B balances dim x + dim y,
    # and it is the one printed
    g = exchange_graph(A3, 6)
    i, k, _, tri = next(e for e in g.edges if e[0] == 0 and e[3].x.key() == ("M", (0, 1, 1)))
    assert tri.y.key() == ("M", (1, 0, 0))
    e_b, e_prime_b = _candidates(g.nodes[i], g.exchange_matrices[i], k)
    assert [c.describe() for c in e_b] == ["M[0, 0, 1]"]
    assert [c.describe() for c in e_prime_b] == ["M[1, 1, 1]"]
    assert tri.e == tri.e_prime == e_prime_b


@pytest.mark.parametrize("q, bound, max_nodes, calls, work", (
    (KRONECKER, 16, 1000, 0, 0),
    (WILD, 6, 20, 7, 148),
    (WILD, 20, 20, 17, 4444),
), ids=["Kronecker@16", "1=>2->3@6/20", "1=>2->3@20/20"])
def test_constructive_mutation_reads_hom_bases_off_the_presentations(
        q, bound, max_nodes, calls, work, count_calls):
    # Hom bases are kernels of Hom(P., N); the summed rows x columns of
    # the matrices rep hands to kernel_basis were 404,100 and 8,724,213
    # on the standard intertwining systems, 0 and 543,552 in 87 calls
    # while the pool searched its compatibility masks and built a cone
    # for each partner it missed, 0 and 148 in 7 calls while a cone
    # tried both approximations and stripped until a strip failed, and
    # 0, 144 in 4 calls and 130,064 in 81 calls while a cone stacked
    # whole Hom bases, on the opposite quiver for eps = +1, and stripped
    # the surplus.  The minimal approximation reads the Hom bases of the
    # composites through the other summands too, and the kernel of each
    # right approximation, so 1=>2->3@6/20 makes 7 calls, but no
    # stacked cone is built and stripped: 29 times less work at @20/20.
    # K2@16 builds no cone: both of its partners past the bound are
    # refused by their predicted classes
    clear_caches()
    kernels = count_calls(rep, "kernel_basis")
    exchange_graph(q, bound, max_nodes)
    assert len(kernels) == calls
    assert sum(m.rows * m.cols for m, in kernels) <= work


def test_kronecker_construction_reads_hom_bases_off_the_presentations(count_calls):
    # the cone K2@6 built before refusing M[6, 7]: mutating M[4, 5] next
    # to M[5, 6] by approximation, with its Hom bases off the presented
    # systems
    pool = build_pool(KRONECKER, 16)
    cluster = canonical_cluster([pool.find(("M", (4, 5))), pool.find(("M", (5, 6)))])
    clear_caches()
    kernels = count_calls(rep, "kernel_basis")
    assert mutate_construct(cluster, 0).key() == ("M", (6, 7))
    assert [(m.rows, m.cols) for m, in kernels] == [(18, 20)]


@pytest.mark.parametrize("q, bound, max_nodes, refusals", (
    (KRONECKER, 16, 1000, 2), (A_TILDE_2_1, 5, 10000, 6), (WILD, 6, 20, 6),
), ids=["Kronecker@16", "A~(2,1)@5", "1=>2->3@6/20"])
def test_frontier_refusals_are_the_constructed_partners(q, bound, max_nodes, refusals,
                                                        count_calls, monkeypatch):
    # an all-module cluster is refused, with no cone built, exactly when
    # its partner's predicted class lies past the bound; the
    # approximation construction on the same cluster and position builds
    # a partner of that class, the one the refusal names
    step = cluster_module.mutate
    met = []

    def recorded(summands, k, pool):
        try:
            return step(summands, k, pool)
        except NotFoundWithinBound as exc:
            if all(s.is_module for s in summands):
                met.append((summands, k, pool.matrices[pool.seeds[summands]],
                            str(exc)))
            raise

    monkeypatch.setattr(cluster_module, "mutate", recorded)
    constructions = count_calls(cluster_module, "mutate_construct")
    g = exchange_graph(q, bound, max_nodes)
    assert len(met) == refusals
    assert dict(g.truncations)["not-found-within-bound"] >= refusals
    assert not set(constructions) & {(summands, k) for summands, k, _, _ in met}
    for summands, k, b, reason in met:
        seed = canonical_cluster(summands)
        cls = _predicted_class(seed, b, seed.index(summands[k]))
        y = mutate_construct(summands, k)
        assert y.dim_c() == cls
        assert max(cls) > bound
        assert reason == (f"exchange partner {y.describe()} of {summands[k].describe()} "
                          f"lies past the bound {bound}")


@pytest.mark.parametrize("q, bound, max_nodes, cones", (
    (A_TILDE_2_1, 5, 10000, 2), (WILD, 6, 20, 4), (WILD, 20, 20, 8),
), ids=["A~(2,1)@5", "1=>2->3@6/20", "1=>2->3@20/20"])
def test_cones_are_built_only_for_classes_the_pool_lacks(q, bound, max_nodes, cones,
                                                         count_calls):
    # mutate builds an approximation cone only for an all-module cluster
    # whose partner's predicted class is within the bound and missing
    # from the pool, and the cone joins the pool, so no cone is built
    # twice; on 1=>2->3@20/20 the compatibility masks, searched first,
    # left 12 partners to be built
    constructions = count_calls(cluster_module, "mutate_construct")
    exchange_graph(q, bound, max_nodes)
    assert len(constructions) == cones
    built = [mutate_construct(summands, k) for summands, k in constructions]
    assert len({y.key() for y in built}) == cones
    assert all(max(y.dim_c()) <= bound for y in built)


@pytest.mark.parametrize("q, bound, max_nodes, left, right", (
    (A_TILDE_2_1, 5, 10000, 2, 0), (A_TILDE_2_2, 4, 10000, 4, 0), (A_TILDE_3_1, 4, 10000, 6, 0),
    (WILD, 6, 20, 3, 1), (WILD, 20, 20, 6, 2), (WILD, 6, 100000, 4, 4), (WILD, 8, 100000, 6, 6),
), ids=["A~(2,1)@5", "A~(2,2)@4", "A~(3,1)@4", "1=>2->3@6/20", "1=>2->3@20/20",
        "1=>2->3@6/100000", "1=>2->3@8/100000"])
def test_each_cone_takes_the_route_its_sign_names(q, bound, max_nodes, left, right,
                                                  monkeypatch):
    # the sign of the leaving c-vector names the exchange triangle that is
    # a short exact sequence: 0 -> x -> E -> y -> 0 for a nonnegative one,
    # whose cone is one cokernel over q of the left approximation of x,
    # and 0 -> y -> E -> x -> 0 for a nonpositive one, whose cone is one
    # kernel over q of the right approximation.  Each complement summand
    # c gets exactly its multiplicity in the predicted middle term in
    # lifts, and no module is built over the opposite quiver
    construct, cokernel, kernel, lifts, lattice = (
        cluster_module.mutate_construct, rep.cokernel_rep, rep.kernel_subrep,
        cluster_module._approximation_maps, rep._lattice)
    records = []  # per construction: summands, position, cones, lifts per c
    opposite, inside = [], []  # the pool's own walks may use the opposite quiver

    def constructed(summands, k):
        records.append((summands, k, [], Counter()))
        inside.append(True)
        try:
            return construct(summands, k)
        finally:
            inside.pop()

    def cokernel_recorded(m, n, maps):
        records[-1][2].append(("cokernel", m.quiver))
        return cokernel(m, n, maps)

    def kernel_recorded(m, n, maps):
        records[-1][2].append(("kernel", m.quiver))
        return kernel(m, n, maps)

    def lifts_recorded(x, c, others, times, eps):
        maps = lifts(x, c, others, times, eps)
        records[-1][3][c.key()] += len(maps)
        return maps

    def built(self):
        if inside and self.quiver == q.opposite():
            opposite.append(self.gens)

    def lattice_recorded(quiver, ranks, actions):
        if inside and quiver == q.opposite():
            opposite.append(ranks)
        return lattice(quiver, ranks, actions)

    monkeypatch.setattr(cluster_module, "mutate_construct", constructed)
    monkeypatch.setattr(rep, "cokernel_rep", cokernel_recorded)
    monkeypatch.setattr(rep, "kernel_subrep", kernel_recorded)
    monkeypatch.setattr(cluster_module, "_approximation_maps", lifts_recorded)
    monkeypatch.setattr(ZRep, "__post_init__", built)
    monkeypatch.setattr(rep, "_lattice", lattice_recorded)
    exchange_graph(q, bound, max_nodes)
    routes = Counter()
    for summands, k, cones, maps in records:
        seed = canonical_cluster(summands)
        i, b = seed.index(summands[k]), _class_matrix(seed)
        nonnegative = min(row[i] for row in b[q.n:]) >= 0
        routes["left" if nonnegative else "right"] += 1
        assert cones == [("cokernel" if nonnegative else "kernel", q)]
        assert maps == Counter(c.key() for c in _signed_candidate(seed, b, i))
    assert routes == Counter(left=left, right=right)
    assert opposite == []


def _module_builds(count_calls) -> list:
    """The calls that translate, present or recognize a module."""
    clear_caches()
    return [count_calls(serre, "tau"), count_calls(serre, "tau_inv"),
            count_calls(rep, "_lattice_presentation"), count_calls(rep, "is_exceptional")]


@pytest.mark.parametrize("q, bound, max_nodes", ((A4, 12, 10000), (D4, 12, 10000),
                                                 (KRONECKER, 6, 8)),
                         ids=["A4", "D4", "Kronecker@6/8"])
def test_exchange_graph_builds_no_module(q, bound, max_nodes, count_calls):
    # pool objects sit at orbit coordinates and the partner tests, the
    # certificates, the balances and the suspensions read those, so the
    # graph translates, presents and recognizes no module
    built = _module_builds(count_calls)
    exchange_graph(q, bound, max_nodes)
    assert built == [[], [], [], []]


def test_pool_command_builds_no_module(tmp_path, capsys, count_calls):
    (tmp_path / "e6.quiver").write_text(
        "clusterforge/1 quiver\nvertices 6\narrows [[1, 2], [2, 3], [3, 4], [4, 5], [3, 6]]\n")
    built = _module_builds(count_calls)
    assert cli.main(["pool", str(tmp_path / "e6.quiver"), "--dim-bound", "12"]) == 0
    assert capsys.readouterr().out.startswith("pool 42 complete true\n")
    assert built == [[], [], [], []]


def test_e7_verify_builds_each_module_once(count_calls, monkeypatch):
    # verify reads every pool module; each is built once, by its walk,
    # whose sink reflections build each orientation they pass once
    clear_caches()
    walks = count_calls(cluster_module, "_walk_module")
    orientations = []
    checked = Quiver.__post_init__

    def counted(q):
        checked(q)
        orientations.append(q.arrows)

    monkeypatch.setattr(Quiver, "__post_init__", counted)
    assert verify.run_suite(E7, 12).ok
    assert len(walks) == len(set(walks)) == 63
    assert len(orientations) == len(set(orientations)) == E7.n
    # the free ext1_c groups of the pool are the interned ones
    pool = build_pool(E7, 12)
    groups = [ext1_c(x, y) for x in pool.objects for y in pool.objects]
    assert all(g is zlinalg.free_group(g.free_rank) for g in groups)


def test_kronecker_at_80_refuses_both_partners_without_a_cone(count_calls):
    # the two partners past the bound are refused by their predicted
    # classes, so no approximation cone is built
    constructions = count_calls(cluster_module, "mutate_construct")
    g = exchange_graph(KRONECKER, 80, 1000)
    assert len(g.nodes) == 161
    assert g.truncations == (("not-found-within-bound", 2),)
    assert constructions == []
