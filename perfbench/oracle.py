"""Output checks for benchmark commands, independent of the dycklat package.

A command carries one of three references, all held by the benchmark:

* ``sha256``: the digest of the exact stdout recorded for a fixed command
  (the CLI promises byte-identical output);
* for ``verify`` commands, additionally, one row per n that ends in ``ok``
  followed by ``all rows agree``;
* ``expect``: the chain count a ``chains`` query must print, computed by
  :func:`chains_from` below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    sha256: str | None = None
    expect: int | None = None

    def __str__(self) -> str:
        return " ".join(self.argv)


def chains_from(word: str, h: int) -> int:
    """Saturated chains of length h upward from a Dyck word.

    Each covering step flips one valley ``du`` into a peak ``ud``; the count
    is memoised per (word, remaining length).
    """
    memo: dict[tuple[str, int], int] = {}

    def count(w: str, k: int) -> int:
        if k == 0:
            return 1
        key = (w, k)
        if key not in memo:
            memo[key] = sum(
                count(w[:i] + "ud" + w[i + 2:], k - 1)
                for i in range(len(w) - 1)
                if w[i] == "d" and w[i + 1] == "u"
            )
        return memo[key]

    return count(word, h)


def _verify_problem(argv: tuple[str, ...], text: str) -> str | None:
    lines = text.splitlines()
    rows = [line for line in lines if line.startswith("n=")]
    n_max = int(argv[argv.index("--n-max") + 1])
    if len(rows) != n_max + 1:
        return f"{len(rows)} verify rows, expected {n_max + 1}"
    bad = [row for row in rows if not row.endswith(" ok")]
    if bad:
        return f"verify row does not end in ok: {bad[0]!r}"
    if not lines or lines[-1] != "all rows agree":
        return "verify output lacks 'all rows agree'"
    return None


def problem(command: Command, returncode: int, stdout: bytes) -> str | None:
    """Why the command's result is wrong, or None when it is right."""
    if returncode != 0:
        return f"exit code {returncode}"
    if command.argv[0] == "verify":
        reason = _verify_problem(command.argv, stdout.decode("utf-8", "replace"))
        if reason:
            return reason
    if command.sha256 is not None and hashlib.sha256(stdout).hexdigest() != command.sha256:
        return "stdout differs from the recorded digest"
    if command.expect is not None and stdout.strip() != str(command.expect).encode():
        return f"printed {stdout.strip()[:40]!r}, expected {command.expect}"
    return None
