"""The arithmetic coder: a re-export of the pure-Python range coder."""

from __future__ import annotations

from ._coder_py import (BACKEND, MAX_TOTAL, AdaptiveModel, RangeDecoder,
                        RangeEncoder, decode_block_adaptive, decode_run,
                        encode_block_adaptive, encode_run)

__all__ = ["MAX_TOTAL", "AdaptiveModel", "RangeDecoder", "RangeEncoder",
           "decode_block_adaptive", "decode_run", "encode_block_adaptive",
           "encode_run", "get_backend_name"]


def get_backend_name() -> str:
    """Name of the coder implementation, recorded in benchmark provenance."""
    return BACKEND
