"""Persistence of communities and couples.

Vectors go into ``.npz`` archives (one array per community) and the
metadata (names, categories, page ids) into a sibling ``.json`` file, so
datasets generated once can be re-joined many times — e.g. to compare
methods on byte-identical inputs.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..core.errors import ValidationError
from ..core.types import Community

__all__ = ["save_communities", "load_communities", "save_couple", "load_couple"]

_META_SUFFIX = ".meta.json"


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + _META_SUFFIX)


def save_communities(path: str | Path, communities: dict[str, Community]) -> Path:
    """Save a keyed set of communities to ``<path>.npz`` + metadata JSON.

    Keys are caller-chosen identifiers (e.g. ``"B"``/``"A"``) and become
    the array names inside the archive.
    """
    path = Path(path).with_suffix(".npz")
    arrays = {key: community.vectors for key, community in communities.items()}
    np.savez_compressed(path, **arrays)
    metadata = {
        key: {
            "name": community.name,
            "category": community.category,
            "page_id": community.page_id,
        }
        for key, community in communities.items()
    }
    _meta_path(path).write_text(json.dumps(metadata, indent=2, sort_keys=True))
    return path


def load_communities(path: str | Path) -> dict[str, Community]:
    """Load a set of communities saved by :func:`save_communities`.

    A file that is not an ``.npz`` archive, or metadata that is not a
    JSON object of per-key objects, raises :class:`ValidationError`
    naming the file.
    """
    path = Path(path).with_suffix(".npz")
    if not path.exists():
        raise ValidationError(f"no such dataset archive: {path}")
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise ValidationError(f"missing metadata file: {meta_path}")
    try:
        metadata = json.loads(meta_path.read_text())
    except ValueError:
        metadata = None
    if not isinstance(metadata, dict) or not all(
        isinstance(info, dict) for info in metadata.values()
    ):
        raise ValidationError(f"{meta_path} does not hold a JSON object of objects")
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path} is not an .npz archive")
    communities: dict[str, Community] = {}
    with archive:
        for key in archive.files:
            info = metadata.get(key, {})
            communities[key] = Community(
                name=info.get("name", key),
                vectors=archive[key],
                category=info.get("category", ""),
                page_id=int(info.get("page_id", 0)),
            )
    return communities


def save_couple(path: str | Path, community_b: Community, community_a: Community) -> Path:
    """Shorthand for persisting one ``<B, A>`` couple."""
    return save_communities(path, {"B": community_b, "A": community_a})


def load_couple(path: str | Path) -> tuple[Community, Community]:
    """Load a couple saved by :func:`save_couple`."""
    communities = load_communities(path)
    try:
        return communities["B"], communities["A"]
    except KeyError as missing:
        raise ValidationError(
            f"archive {path} does not hold a couple (missing key {missing})"
        ) from None
