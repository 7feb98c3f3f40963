"""The library's one caching policy: unbounded memo tables that clear together.

Every memoized function is decorated with `memo`, which returns a plain
`functools.lru_cache` (so `cache_info()` still works) and records it in
`TABLES`; `clear_caches()` empties them all in one call.
"""

from functools import lru_cache

TABLES = []


def memo(fn):
    table = lru_cache(maxsize=None)(fn)
    TABLES.append(table)
    return table


def clear_caches() -> None:
    """Empty every memo table of the library."""
    for table in TABLES:
        table.cache_clear()
