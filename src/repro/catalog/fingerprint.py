"""Dtype-aware content fingerprints for the persistent catalog.

Each catalog row records the fingerprint of its community's vectors
(``CatalogRecord.fingerprint``, shown by ``repro-csj catalog ls``), so
two rows, or one row before and after a re-registration, hold the same
matrix exactly when their fingerprints agree.  Hashing shape + raw
bytes is not enough: the same byte buffer reinterpreted under a
different dtype is a different matrix (``float64 1.0`` and ``int64
4607182418800017408`` share all eight bytes), so the dtype — including
endianness — is part of the content and belongs in the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["content_fingerprint"]


def content_fingerprint(matrix: object) -> str:
    """SHA-256 hex digest over dtype + shape + row-major bytes."""
    array = np.ascontiguousarray(matrix)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()
