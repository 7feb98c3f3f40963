from clusterforge import clear_caches, cluster, quiver, rep, serre, zlinalg
from clusterforge.cluster import build_pool, exchange_graph
from clusterforge.memo import TABLES
from clusterforge.quiver import Quiver

A3 = Quiver(3, ((1, 2), (2, 3)))


def _module_tables():
    return {fn for module in (zlinalg, quiver, rep, serre, cluster)
            for fn in vars(module).values() if callable(fn) and hasattr(fn, "cache_info")}


def test_every_table_is_registered():
    assert _module_tables() <= set(TABLES)
    names = [f"{t.__module__.rpartition('.')[2]}.{t.__name__}" for t in TABLES]
    assert sorted(names) == [
        "cluster._orbit_dim", "cluster.ext1_c", "quiver.coxeter_inverse", "quiver.coxeter_matrix",
        "quiver.reflected", "rep._lattice_hom_ext", "rep.ext1_group", "rep.hom_group",
        "rep.injective_lattice", "rep.is_exceptional", "rep.paths_from", "rep.projective",
        "serre.tau", "serre.tau_inv", "zlinalg.free_group"]


def test_clear_caches_empties_every_table():
    build_pool(A3, 6)
    exchange_graph(A3, 6)
    assert any(t.cache_info().currsize for t in TABLES)
    clear_caches()
    assert all(t.cache_info().currsize == 0 for t in TABLES)
