"""The library's one caching policy: unbounded memo tables that clear together,
keyed by values that hash once.

Every memoized function is decorated with `memo`, which returns a plain
`functools.lru_cache` (so `cache_info()` still works) and records it in
`TABLES`; `clear_caches()` empties them all in one call.  The values the
tables are keyed by are frozen dataclasses decorated with `hash_once`, and
`once` keeps any other per-value identity, such as a canonical key.
"""

from functools import lru_cache, wraps

TABLES = []

# Prefix of the instance `__dict__` names under which `once` keeps results.
_ONCE = "_once_"


def memo(fn):
    table = lru_cache(maxsize=None)(fn)
    TABLES.append(table)
    return table


def clear_caches() -> None:
    """Empty every memo table of the library."""
    for table in TABLES:
        table.cache_clear()


def once(method):
    """Method decorator for an immutable value: run a zero-argument method once.

    The result is stored in the instance `__dict__` under a private name,
    outside the dataclass fields, so `==`, `repr`, `dataclasses.fields` and
    frozenness are unchanged.  Two threads that call it on the same fresh
    value both store the same result, so concurrent reads stay safe.
    """
    name = _ONCE + method.__name__

    @wraps(method)
    def cached(self):
        try:
            return self.__dict__[name]
        except KeyError:
            value = self.__dict__[name] = method(self)
            return value

    return cached


def hash_once(cls):
    """Class decorator for a frozen dataclass: hash each value once.

    The `__hash__` that `@dataclass(frozen=True)` generates hashes the
    tuple of fields, which for a nested value (a representation holding
    its quiver and matrices) walks the whole structure on every memo
    lookup.  Wrapped by `once`, it runs on first use only and the value
    stays the field-tuple hash.  What `once` stored is left out when the
    value is pickled or copied, since the hash of a field such as `None`
    differs between processes.
    """
    cls.__hash__ = once(cls.__hash__)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith(_ONCE)}

    cls.__getstate__ = __getstate__
    return cls
