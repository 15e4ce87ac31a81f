"""Spatial indexing: the paper's sensing-region index (Section IV-C), one
table of past sensing-region boxes and the objects attached to each."""

from .region_index import SensingRegionIndex

__all__ = ["SensingRegionIndex"]
