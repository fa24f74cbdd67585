"""Columnar zero-copy substrate: encoded columns, vectorized kernels, flat files.

``ColumnStore`` lowers a database into dictionary-encoded numpy columns,
:func:`columnar_rows`/:func:`columnar_annotated_table` execute compiled
plans over them, and :mod:`repro.columnar.flatfile` is the
memory-mappable on-disk format shared with snapshot shipping and cache
spill.  The store and kernels need numpy (:data:`HAVE_NUMPY`); without it
the tuple plan executor is the only executor.
"""

from repro.columnar.kernels import columnar_annotated_table, columnar_rows
from repro.columnar.store import (
    HAVE_NUMPY,
    ColumnStore,
    RelationColumns,
    cached_column_store,
)

__all__ = [
    "ColumnStore",
    "RelationColumns",
    "HAVE_NUMPY",
    "cached_column_store",
    "columnar_rows",
    "columnar_annotated_table",
]
