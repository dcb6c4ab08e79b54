"""Skew shapes delimited by a pair of lattice-path border words.

A shape is a pair (lower, upper) of equally long step words with the same
number of u steps, drawn from a common start point.  The upper border must
stay strictly above the lower one at every interior point and meet it at
both ends; this forces lower to run d...u and upper to run u...d, and makes
the enclosed region connected.  The area is the number of unit cells between
the two borders, which equals half the sum of the height differences.

The standard fillings of a shape are counted by walking from the lower
border to the upper one, one valley flip at a time, while staying weakly
below the upper border.  Each walk order corresponds to one filling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import le

from .limits import Limits
from .paths import canonical_key, covers, profile


class SkewShape:
    """A skew shape given by its lower and upper border words."""

    __slots__ = ("lower", "upper", "area", "_tableaux")

    def __init__(self, lower: str, upper: str):
        if len(lower) != len(upper):
            raise ValueError("border words must have equal length")
        if len(lower) < 2:
            raise ValueError("border words must have length at least 2")
        low = profile(lower)
        up = profile(upper)
        if lower.count("u") != upper.count("u"):
            raise ValueError("border words must have equal u counts")
        for p in range(1, len(lower)):
            if up[p] <= low[p]:
                raise ValueError(
                    f"upper border must stay strictly above the lower one (interior point {p})"
                )
        self.lower = lower
        self.upper = upper
        self.area = sum(a - b for a, b in zip(up, low)) // 2
        self._tableaux: int | None = None

    def tableau_count(self, limits: Limits = Limits()) -> int:
        """Number of flip walks from the lower border to the upper one.

        Each walk repeatedly replaces a du factor by ud without exceeding the
        upper profile.  The count equals the number of standard fillings of
        the shape by 1..area.
        """
        limits.check("max_shape_area", self.area, "area")
        if self._tableaux is None:
            top = profile(self.upper)
            memo: dict[str, int] = {self.upper: 1}

            def walks(word: str) -> int:
                # A word above the upper border at some point starts no walk.
                if word not in memo:
                    below = all(map(le, profile(word), top))
                    memo[word] = sum(map(walks, covers(word))) if below else 0
                return memo[word]

            self._tableaux = walks(self.lower)
        return self._tableaux

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    def __str__(self) -> str:
        return f"{self.lower}/{self.upper}"

    def __repr__(self) -> str:
        return f"SkewShape({self.lower!r}, {self.upper!r})"


# A run asks for each area from 1 to its max_shape_area (6 by default) at
# most, so a default run never evicts.
@lru_cache(maxsize=16)
def _enumerate(area: int) -> tuple[SkewShape, ...]:
    # Interior strictness forces a gap of at least one cell per interior
    # point, so a border of length L encloses area >= L - 1 and the search
    # can stop at words of length area + 1.
    found = []
    for length in range(2, area + 2):
        for mid_low in product("ud", repeat=length - 2):
            lower = "d" + "".join(mid_low) + "u"
            low = profile(lower)
            ups = lower.count("u")
            for mid_up in product("ud", repeat=length - 2):
                upper = "u" + "".join(mid_up) + "d"
                if upper.count("u") != ups:
                    continue
                up = profile(upper)
                if any(up[p] <= low[p] for p in range(1, length)):
                    continue
                if sum(a - b for a, b in zip(up, low)) // 2 == area:
                    found.append(SkewShape(lower, upper))
    found.sort(key=lambda s: (canonical_key(s.lower), canonical_key(s.upper)))
    return tuple(found)


def enumerate_shapes(area: int, limits: Limits = Limits()) -> tuple[SkewShape, ...]:
    """All skew shapes of the given area, sorted by canonical border order."""
    if area < 1:
        raise ValueError("area must be at least 1")
    limits.check("max_shape_area", area, "area")
    return _enumerate(area)


def shapes_with_border(
    area: int, border: str, limits: Limits = Limits()
) -> tuple[SkewShape, ...]:
    """Shapes of the given area whose lower border equals the given word."""
    return tuple(shape for shape in enumerate_shapes(area, limits) if shape.lower == border)
