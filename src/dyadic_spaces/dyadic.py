"""Dyadic cubes and support trees.

A dyadic cube at level j with integer index k is the half-open box
2**-j * ([0,1)**n + k).  Half-openness makes same-level cubes a partition of
space, so all measure bookkeeping below is exact dyadic-rational arithmetic.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

# Python refuses int <-> decimal string conversions beyond a digit limit (4300
# by default), and the index of a cube at level 20000 has about 6000 digits.
# Such integers are converted in pieces, which leaves the process-wide limit
# alone.
_DIGITS = 4000  # decimal digits per piece
_PIECE = 10**_DIGITS


def int_to_decimal(k: int) -> str:
    """Decimal text of an integer of any size."""
    if -_PIECE < k < _PIECE:
        return str(k)
    if k < 0:
        return "-" + int_to_decimal(-k)
    pieces = []
    while k >= _PIECE:
        k, r = divmod(k, _PIECE)
        pieces.append(str(r).zfill(_DIGITS))
    pieces.append(str(k))
    return "".join(reversed(pieces))


def decimal_to_int(text: str) -> int:
    """The integer of a decimal text of any length."""
    digits = text.lstrip("+-")
    value = 0
    for i in range(0, len(digits), _DIGITS):
        piece = digits[i : i + _DIGITS]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


# ``json_dumps`` writes an integer of more bits than this in pieces
_SAFE_BITS = 13000  # at most 3914 digits: converted in one piece


def json_dumps(obj, **kwargs) -> str:
    """``json.dumps`` that also writes integers of any size."""
    try:
        return json.dumps(obj, **kwargs)
    except ValueError:  # an integer beyond the limit, or raised again below
        pass
    big: list[int] = []

    def swap(o):
        if isinstance(o, dict):
            return {k: swap(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [swap(v) for v in o]
        if isinstance(o, int) and o.bit_length() > _SAFE_BITS:
            big.append(o)
            return f"\0{len(big) - 1}"  # a NUL cannot occur in a real string here
        return o

    text = json.dumps(swap(obj), **kwargs)
    if big:
        text = re.sub(r'"\\u0000(\d+)"', lambda m: int_to_decimal(big[int(m[1])]), text)
    return text


class DimensionMismatchError(ValueError):
    """Two cubes of different ambient dimension were combined."""


@dataclass(frozen=True)
class DyadicCube:
    """The half-open cube 2**-level * ([0,1)**dim + index)."""

    dim: int
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        idx = self.index
        if isinstance(idx, int):
            idx = (idx,)
        idx = tuple(int(k) for k in idx)
        if len(idx) != self.dim:
            raise ValueError(f"index length {len(idx)} != dim {self.dim}")
        object.__setattr__(self, "index", idx)
        object.__setattr__(self, "level", int(self.level))

    @classmethod
    def unit(cls, dim: int) -> "DyadicCube":
        """[0,1)**dim."""
        return cls(dim, 0, (0,) * dim)

    # -- order --------------------------------------------------------------

    def sort_key(self) -> tuple:
        return (self.level, self.index)

    # -- tree structure -----------------------------------------------------

    def contains(self, other: "DyadicCube") -> bool:
        """True iff ``other`` is a subset of this cube (as half-open boxes)."""
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"cannot compare cubes of dim {self.dim} and {other.dim}"
            )
        shift = other.level - self.level
        if shift < 0:
            return False
        return all((kq >> shift) == kp for kq, kp in zip(other.index, self.index))

    def ancestor_at(self, level: int) -> "DyadicCube":
        """The unique cube at the given (coarser) level containing this one."""
        if level > self.level:
            raise ValueError(
                f"level {level} is finer than the cube's own level {self.level}"
            )
        shift = self.level - level
        return DyadicCube(self.dim, level, tuple(k >> shift for k in self.index))

    def parent(self) -> "DyadicCube":
        return self.ancestor_at(self.level - 1)

    def child(self, code: int) -> "DyadicCube":
        """Child cube selected by a bit code in [0, 2**dim)."""
        if not 0 <= code < (1 << self.dim):
            raise ValueError(f"child code {code} out of range for dim {self.dim}")
        idx = tuple(2 * k + ((code >> d) & 1) for d, k in enumerate(self.index))
        return DyadicCube(self.dim, self.level + 1, idx)

    def children(self) -> Iterator["DyadicCube"]:
        for code in range(1 << self.dim):
            yield self.child(code)

    def __repr__(self) -> str:
        k = ", ".join(map(int_to_decimal, self.index))
        return f"Q(j={self.level}, k={k if self.dim == 1 else f'[{k}]'})"


@dataclass(frozen=True)
class SupportTree:
    """A finite set of dyadic cubes hanging under a declared root cube."""

    root: DyadicCube
    nodes: frozenset[DyadicCube]
    max_depth: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        jr = self.root.level
        for q in self.nodes:
            if not self.root.contains(q):
                raise ValueError(f"node {q} lies outside the root {self.root}")
            if not jr <= q.level <= jr + self.max_depth:
                raise ValueError(
                    f"node {q} at level {q.level} violates the depth bound "
                    f"[{jr}, {jr + self.max_depth}]"
                )

    @classmethod
    def build(
        cls,
        nodes: Iterable[DyadicCube],
        root: DyadicCube | None = None,
        max_depth: int | None = None,
    ) -> "SupportTree":
        nodes = frozenset(nodes)
        if root is None:
            if not nodes:
                raise ValueError("cannot infer a root from an empty node set")
            dim = next(iter(nodes)).dim
            root = DyadicCube.unit(dim)
        depth = max((q.level - root.level for q in nodes), default=0)
        if max_depth is None:
            max_depth = depth
        elif max_depth < depth:
            raise ValueError(f"max_depth {max_depth} below actual depth {depth}")
        return cls(root, nodes, max_depth)
