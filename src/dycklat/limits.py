"""The size caps every capped entry point enforces, as one value.

Field names double as the ``--config`` keys and ``--max-*`` flags of the
command line, which builds one ``Limits`` and passes it to every call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ResourceLimitError


@dataclass(frozen=True)
class Limits:
    """Upper bounds on request sizes, one per kind of work they bound."""

    max_lattice_n: int = 14  # semilength for routes that visit every path
    max_closed_n: int = 200  # semilength or order for closed-form and series routes
    max_formula_h: int = 5  # chain length for the placement formula
    max_shape_area: int = 6  # area for shape enumeration and filling counts

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"{field.name} must be nonnegative, got {value}")

    def check(self, cap: str, value: int, what: str) -> None:
        """Raise ResourceLimitError when value exceeds the cap field named `cap`."""
        limit = getattr(self, cap)
        if value > limit:
            raise ResourceLimitError(f"{what} {value} exceeds the cap {cap}={limit}")
