"""Configuration for the merge-as-a-service daemon."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..merge.pass_ import PassConfig

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Daemon-wide options.

    ``threshold``/``alignment``/``verify`` configure the merge pipeline
    exactly like the one-shot CLI (the defaults match ``repro merge -s
    f3m``, which is what the decision-identity guarantee is stated
    against).  ``compact_ratio`` is the corpus index's auto-compaction threshold:
    compact when tombstones exceed this fraction of live entries — a
    long-lived daemon defaults to 0.5 (earlier than the one-shot 1.0) so
    query-time tombstone skipping never degrades; ``None`` disables it.
    ``max_functions`` caps the corpus: beyond it, the least-recently
    upserted functions are evicted (demoted to declarations while still
    referenced, erased otherwise).  ``fingerprint_cache_size`` /
    ``result_cache_size`` bound the content-addressed caches.
    ``store_dir`` names a :class:`~repro.fingerprint.store.FingerprintStore`
    directory: fingerprints are warmed from it at startup and spilled to
    it on ``flush``.  ``manifest_dir`` enables one ``kind="serve"``
    manifest per request (deterministic — byte-reproducible across
    identical sessions).
    """

    threshold: float = 0.0
    alignment: str = "linear"
    verify: bool = True
    compact_ratio: Optional[float] = 0.5
    max_functions: Optional[int] = None
    fingerprint_cache_size: int = 1 << 20
    result_cache_size: int = 64
    store_dir: Optional[str] = None
    manifest_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.compact_ratio is not None and self.compact_ratio <= 0:
            raise ValueError("compact_ratio must be positive (or None)")
        if self.max_functions is not None and self.max_functions < 1:
            raise ValueError("max_functions must be >= 1 (or None)")
        if self.result_cache_size < 1:
            raise ValueError("result_cache_size must be >= 1")

    def pass_config(self) -> PassConfig:
        """The merge-pipeline config served to every ``merge`` request."""
        return PassConfig(
            threshold=self.threshold,
            alignment=self.alignment,
            verify=self.verify,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "alignment": self.alignment,
            "verify": self.verify,
            "compact_ratio": self.compact_ratio,
            "max_functions": self.max_functions,
            "fingerprint_cache_size": self.fingerprint_cache_size,
            "result_cache_size": self.result_cache_size,
            "store_dir": self.store_dir,
            "manifest_dir": self.manifest_dir,
        }
