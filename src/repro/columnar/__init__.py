"""Columnar substrate: encoded columns and vectorized kernels.

``ColumnStore`` lowers a database into dictionary-encoded numpy columns,
and :func:`columnar_rows`/:func:`columnar_annotated_table` execute
compiled plans over them.  The store and kernels need numpy
(:data:`HAVE_NUMPY`); without it the tuple plan executor is the only
executor.
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
