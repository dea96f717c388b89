"""Candidate search: exhaustive ranking (HyFM), LSH (F3M), adaptive policy."""

from .adaptive import (
    AdaptiveParameters,
    adaptive_bands,
    adaptive_parameters,
    adaptive_threshold,
    lsh_match_probability,
)
from .lsh import BucketStats, ColumnarBuckets, LSHIndex, LSHQueryStats, band_bucket_keys
from .pairing import ExhaustiveRanker, Match, MinHashLSHRanker, Ranker, RankingStats

__all__ = [
    "AdaptiveParameters",
    "adaptive_bands",
    "adaptive_parameters",
    "adaptive_threshold",
    "lsh_match_probability",
    "BucketStats",
    "ColumnarBuckets",
    "band_bucket_keys",
    "LSHIndex",
    "LSHQueryStats",
    "ExhaustiveRanker",
    "Match",
    "MinHashLSHRanker",
    "Ranker",
    "RankingStats",
]
