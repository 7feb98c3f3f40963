"""Identity of the memo-key values: each hashes once, to its field-tuple hash."""

import copy
import dataclasses
import pickle

import pytest

from clusterforge import clear_caches
from clusterforge.cluster import ClusterObject
from clusterforge.quiver import Quiver
from clusterforge.rep import ZRep, dim_vector, hom_group, make_lattice, projective
from clusterforge.zlinalg import IntMatrix

A3 = Quiver(3, ((1, 2), (2, 3)))


def _a3_rep():
    """The projective at vertex 1 of A3, built afresh, with fresh matrices."""
    q = Quiver(3, ((1, 2), (2, 3)))
    return make_lattice(q, (1, 1, 1), (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])))


BUILDERS = {
    "IntMatrix": lambda: IntMatrix.from_rows([[1, -2, 0], [3, 4, 5]]),
    "Quiver": lambda: Quiver(3, ((1, 2), (2, 3))),
    "ZRep": _a3_rep,
    "ClusterObject": lambda: ClusterObject.from_module(_a3_rep()),
}


def _field_tuple(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_values_hash_equal_to_their_field_tuple(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(_field_tuple(b))
    assert hash(a) == hash(_field_tuple(a))


@pytest.mark.parametrize("name", BUILDERS)
def test_cached_hash_is_invisible(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    names = tuple(f.name for f in dataclasses.fields(b))
    hash(a)
    assert a == b and b == a
    assert repr(a) == repr(b)
    assert tuple(f.name for f in dataclasses.fields(a)) == names
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, names[0], getattr(a, names[0]))


@pytest.mark.parametrize("name", BUILDERS)
def test_pickle_and_copy_drop_the_cached_hash(name):
    a = BUILDERS[name]()
    hash(a)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a
        assert not any(k.startswith("_once_") for k in vars(b))
        assert hash(b) == hash(a)


def test_pickle_and_copy_drop_the_stored_lattice_flag():
    a = _a3_rep()
    assert a.is_lattice
    assert "_once_is_lattice" in vars(a)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert b == a
        assert "_once_is_lattice" not in vars(b)
        assert b.is_lattice


def test_rebuilt_rep_hits_the_hom_table():
    clear_caches()
    target = projective(A3, 2)
    hom_group(_a3_rep(), target)
    hits = hom_group.cache_info().hits
    hom_group(_a3_rep(), target)
    assert hom_group.cache_info().hits == hits + 1


def test_second_hash_touches_no_matrix_or_quiver(monkeypatch):
    calls = []
    for cls in (IntMatrix, Quiver):
        inner = cls.__hash__

        def counted(self, inner=inner):
            calls.append(type(self).__name__)
            return inner(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    m = _a3_rep()
    assert isinstance(m, ZRep)
    first = hash(m)
    assert "IntMatrix" in calls and "Quiver" in calls
    calls.clear()
    assert hash(m) == first
    assert calls == []


def test_cluster_object_key_is_computed_once():
    obj = ClusterObject.from_module(_a3_rep())
    key = obj.key()
    assert key == ("M", dim_vector(obj.module)) == ("M", (1, 1, 1))
    assert obj.key() is key
    sp = ClusterObject.sigma_projective(A3, 2)
    assert sp.key() is sp.key() == ("S", (2,))
