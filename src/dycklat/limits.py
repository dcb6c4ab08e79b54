"""The size caps every capped entry point enforces, as one value.

``Limits.check`` is the one statement of the rule for a capped size: a
negative size raises ``ValueError("<what> must be nonnegative")``, then a
size above its cap raises ``ResourceLimitError``.  Field names double as the
``--config`` keys and ``--max-*`` flags of the command line, which builds
one ``Limits`` and passes it to every call.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ResourceLimitError

# A named tuple rather than a dataclass: importing dataclasses costs every
# command about 10 ms of start-up (it imports inspect and ast).
_Caps = namedtuple(
    "Limits",
    (
        "max_lattice_n",  # semilength for routes that visit every path
        "max_closed_n",  # semilength or order for closed-form and series routes
        "max_formula_h",  # chain length for the placement formula
        "max_shape_area",  # area for shape enumeration and filling counts
    ),
    defaults=(14, 200, 5, 6),
)


class Limits(_Caps):
    """Upper bounds on request sizes, one per kind of work they bound."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it through the checks too.
        return cls(*iterable)

    def check(self, cap: str, value: int, what: str) -> None:
        """Raise ValueError for a negative value, then ResourceLimitError above the cap `cap`."""
        if value < 0:
            raise ValueError(f"{what} must be nonnegative")
        limit = getattr(self, cap)
        if value > limit:
            raise ResourceLimitError(f"{what} {value} exceeds the cap {cap}={limit}")
