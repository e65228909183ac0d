"""Arithmetic-coder backend selection.

The compiled extension is preferred when it imported cleanly; the pure
Python implementation is always available and produces bit-identical
streams.  Set SEMCOMM_PURE=1 to force the fallback (useful for timing
comparisons and for debugging the kernels side by side).
"""

from __future__ import annotations

import os

from . import _coder_py

if os.environ.get("SEMCOMM_PURE"):
    _impl = _coder_py
else:
    try:
        from . import _coder_cy as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _coder_py

MAX_TOTAL = _impl.MAX_TOTAL
RangeEncoder = _impl.RangeEncoder
RangeDecoder = _impl.RangeDecoder
encode_block_adaptive = _impl.encode_block_adaptive
decode_block_adaptive = _impl.decode_block_adaptive
ideal_bits = _impl.ideal_bits
# the adaptive model drives either backend's coder through its public methods
AdaptiveModel = _coder_py.AdaptiveModel


def get_backend_name() -> str:
    """Which kernel implementation this process is using."""
    return _impl.BACKEND
