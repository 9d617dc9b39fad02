"""Small bit-vector helpers used by the closed-form modules.

Bit i of a mask holds qubit i+1, so qubit 1 is the least significant bit.
The oracle module deliberately does not import from here.
"""

from __future__ import annotations

import numpy as np


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element population count of an unsigned integer array."""
    return np.bitwise_count(arr)


def parity(arr: np.ndarray) -> np.ndarray:
    """Per-element parity (popcount mod 2), as int64 in {0, 1}."""
    return (np.bitwise_count(arr) & 1).astype(np.int64)


def bits_to_int(bits) -> int:
    v = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {j} is {b!r}, expected 0 or 1")
        v |= b << j
    return v
