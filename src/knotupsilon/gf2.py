"""GF(2) linear algebra on integer bitmasks.

A vector over GF(2) is a Python int: bit k holds the coefficient of basis
element k, and XOR is vector addition.  Pivoting always happens on the
highest set bit, which makes the routines directly usable for
filtration-ordered reductions: reindex the basis so the filtration is
increasing, and a vector's pivot is then the latest filtration level it
touches.  Everything is exact and deterministic.
"""

from __future__ import annotations


class BitEchelon:
    """Growing echelon basis with pivots on highest set bits."""

    def __init__(self, vectors=()):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Reduce v against the basis; the result is 0 iff v is dependent."""
        while v:
            row = self.pivots.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row
        return v

    def add(self, v: int) -> int:
        """Insert v into the basis.  Returns the reduced vector (0 if dependent)."""
        v = self.reduce(v)
        if v:
            self.pivots[v.bit_length() - 1] = v
        return v

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_positions(self) -> list[int]:
        return sorted(self.pivots)


def kernel_basis(columns) -> list[int]:
    """Kernel of the linear map sending basis vector j to columns[j].

    columns are bitmask vectors in the target space; the result is a list
    of bitmasks over the column indices, in deterministic order.
    """
    echelon: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, col in enumerate(columns):
        v, combo = col, 1 << j
        while v:
            hit = echelon.get(v.bit_length() - 1)
            if hit is None:
                break
            v ^= hit[0]
            combo ^= hit[1]
        if v:
            echelon[v.bit_length() - 1] = (v, combo)
        else:
            kernel.append(combo)
    return kernel


def bits(v: int) -> list[int]:
    """Indices of the set bits of v, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
