"""Dataset substrates: the VK-like and Synthetic generators, the paper's
couple registry (Table 2), statistics (Table 1) and persistence."""

from .categories import (
    CATEGORIES,
    N_CATEGORIES,
    SYNTHETIC_MAX_LIKES_PER_DIMENSION,
    SYNTHETIC_RANKING,
    SYNTHETIC_TOTAL_LIKES,
    VK_MAX_LIKES_PER_DIMENSION,
    VK_TOTAL_LIKES,
    category_index,
)
from .clusters import CoupleVectors, build_couple_vectors
from .couples import (
    DEFAULT_SCALE,
    DIFFERENT_CATEGORY_COUPLES,
    PAPER_COUPLES,
    SAME_CATEGORY_COUPLES,
    SCALABILITY_SIZES,
    CoupleSpec,
    build_couple,
    couples_for_table,
    scale_size,
)
from .manifest import build_manifest, load_manifest, save_manifest, verify_manifest
from .io import load_communities, load_couple, save_communities, save_couple
from .streams import (
    LikeEvent,
    LikeStreamSimulator,
    MutationEvent,
    MutationStreamSimulator,
    apply_mutation,
    replay,
)
from .stats import CategoryTotal, category_totals, max_likes_per_dimension, ranking
from .synthetic import SYNTHETIC_EPSILON, SyntheticGenerator
from .vk import VK_EPSILON, VKGenerator

__all__ = [
    "build_manifest",
    "verify_manifest",
    "save_manifest",
    "load_manifest",
    "LikeEvent",
    "LikeStreamSimulator",
    "MutationEvent",
    "MutationStreamSimulator",
    "apply_mutation",
    "replay",
    "CATEGORIES",
    "N_CATEGORIES",
    "VK_TOTAL_LIKES",
    "SYNTHETIC_TOTAL_LIKES",
    "SYNTHETIC_RANKING",
    "VK_MAX_LIKES_PER_DIMENSION",
    "SYNTHETIC_MAX_LIKES_PER_DIMENSION",
    "category_index",
    "CoupleVectors",
    "build_couple_vectors",
    "CoupleSpec",
    "PAPER_COUPLES",
    "DIFFERENT_CATEGORY_COUPLES",
    "SAME_CATEGORY_COUPLES",
    "SCALABILITY_SIZES",
    "DEFAULT_SCALE",
    "scale_size",
    "build_couple",
    "couples_for_table",
    "save_communities",
    "load_communities",
    "save_couple",
    "load_couple",
    "CategoryTotal",
    "category_totals",
    "ranking",
    "max_likes_per_dimension",
    "VKGenerator",
    "VK_EPSILON",
    "SyntheticGenerator",
    "SYNTHETIC_EPSILON",
]
