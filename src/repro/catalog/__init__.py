"""Persistent community catalog: SQLite-backed storage with indexed
envelope screening and lazy vector loads.  See ``docs/catalog.md`` for
the schema and the window-query SQL; join results are kept by
:mod:`repro.engine`, not here.
"""

from .fingerprint import content_fingerprint
from .store import (
    CATALOG_COUNTERS,
    CatalogRecord,
    PersistentCatalog,
    init_catalog_metrics,
)

__all__ = [
    "CATALOG_COUNTERS",
    "CatalogRecord",
    "PersistentCatalog",
    "content_fingerprint",
    "init_catalog_metrics",
]
