"""Debian-policy package version parsing and comparison.

The synthetic catalog uses Debian/Ubuntu-style version strings
(``[epoch:]upstream[-revision]``, e.g. ``2:9.5.14-0ubuntu0.16.04``) and
the similarity metrics of Section III-E need both a *total order* (does
the base image provide a new enough libc?) and a *graded similarity*
(how close are two versions of the same package?).

The comparison implements the Debian policy algorithm: the version is
split into epoch, upstream version and revision; upstream/revision are
compared by alternating maximal non-digit and digit runs, with ``~``
sorting before everything (including the empty string).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

__all__ = ["Version", "version_component_similarity"]

_DIGITS = re.compile(r"\d+")


def _char_order(c: str) -> int:
    """Debian character ordering: ``~`` < end < letters < non-letters."""
    if c == "~":
        return -1
    if c.isalpha():
        return ord(c)
    # non-alphanumeric characters sort after letters
    return ord(c) + 256


#: the char-order value of the end of a non-digit run: above ``~``,
#: below every letter and non-letter
_END = 0

#: the pair a Debian comparison substitutes once a string runs out: an
#: empty non-digit run (just its end) and the number 0
_PHANTOM: tuple[tuple[int, ...], int] = ((_END,), 0)


#: one upstream or revision string in sort-key form
_StringKey = tuple[tuple[tuple[int, ...], int], ...]


@lru_cache(maxsize=4096)
def _string_key(s: str) -> _StringKey:
    """Sort key of an upstream or revision string, in Debian order.

    The string splits into alternating (non-digit run, number) pairs —
    the units the Debian algorithm compares.  A run becomes its
    character orders plus ``_END``, so a run that is a prefix of
    another sorts below it unless the longer one goes on with ``~``.
    Debian pads the shorter string with phantom ``("", 0)`` pairs.
    Only the first pair can equal a phantom (every later run is
    non-empty), so the key keeps at least one pair and appends one
    phantom: tuple order then decides at the first real difference,
    exactly where the Debian comparison does — ``"0~" < ""`` included.

    Versions are built far more often than there are distinct strings
    (every unpickled package rebuilds its own), so keys are cached,
    bounded, and shared between instances.  A 20 s perfbench
    ``churn-restart`` run keys 120 distinct strings 219,026 times;
    without this cache its ``ops_per_s`` fell 6.6% (5 paired runs on
    2 CPUs) and ``ingest`` did not move.
    """
    pairs: list[tuple[tuple[int, ...], int]] = []
    i, n = 0, len(s)
    while i < n:
        j = i
        while j < n and not s[j].isdigit():
            j += 1
        run = (*map(_char_order, s[i:j]), _END)
        i = j
        while j < n and s[j].isdigit():
            j += 1
        pairs.append((run, int(s[i:j]) if j > i else 0))
        i = j
    if not pairs:
        pairs.append(_PHANTOM)
    pairs.append(_PHANTOM)
    return tuple(pairs)


@lru_cache(maxsize=4096)
def _digit_runs(s: str) -> tuple[int, ...]:
    """Digit runs of an upstream string, cached like :func:`_string_key`.

    75 distinct upstreams, 109,513 calls in the same ``churn-restart``
    run; uncached, its ``ops_per_s`` fell 3.6% (5 paired runs).
    """
    return tuple(int(m) for m in _DIGITS.findall(s))


@dataclass(frozen=True, order=True)
class Version:
    """An immutable, totally ordered Debian-style version.

    Order, equality and hash all go through ``_key``, the only compared
    field: a plain tuple whose order is the Debian order.

    >>> Version.parse("1:2.0-1") > Version.parse("3.0")
    True
    >>> Version.parse("2.0~rc1") < Version.parse("2.0")
    True
    """

    epoch: int = field(compare=False)
    upstream: str = field(compare=False)
    revision: str = field(compare=False)
    raw: str = field(compare=False, default="")
    #: the Debian order as a plain tuple, derived once per instance
    _key: tuple[int, _StringKey, _StringKey] = field(init=False, repr=False)
    #: the upstream version's digit runs, derived once per instance
    _numeric: tuple[int, ...] = field(init=False, repr=False, compare=False)

    @classmethod
    def parse(cls, text: str) -> "Version":
        """Parse ``[epoch:]upstream[-revision]``.

        Raises:
            ValueError: for empty or malformed strings.
        """
        if not text or text != text.strip():
            raise ValueError(f"malformed version string {text!r}")
        raw = text
        epoch = 0
        if ":" in text:
            head, _, text = text.partition(":")
            if not head.isdigit():
                raise ValueError(f"malformed epoch in {raw!r}")
            epoch = int(head)
        upstream, sep, revision = text.rpartition("-")
        if not sep:
            upstream, revision = text, ""
        if not upstream:
            raise ValueError(f"empty upstream version in {raw!r}")
        return cls(epoch=epoch, upstream=upstream, revision=revision, raw=raw)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.raw or self._canonical()

    def _canonical(self) -> str:
        s = self.upstream
        if self.epoch:
            s = f"{self.epoch}:{s}"
        if self.revision:
            s = f"{s}-{self.revision}"
        return s

    # -- the Debian order, through a key computed once -------------------

    def __post_init__(self) -> None:
        self._derive()

    def _derive(self) -> None:
        # frozen: derived fields go straight into the instance dict
        attrs = self.__dict__
        upstream = attrs["upstream"]
        attrs["_key"] = (
            attrs["epoch"],
            _string_key(upstream),
            _string_key(attrs["revision"]),
        )
        attrs["_numeric"] = _digit_runs(upstream)

    def __getstate__(self) -> dict[str, Any]:
        # the derived fields stay out of pickles: snapshots keep their
        # size, and unpickling recomputes them
        return {
            "epoch": self.epoch,
            "upstream": self.upstream,
            "revision": self.revision,
            "raw": self.raw,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._derive()

    def share_strings(self, share: Callable[[str], str]) -> None:
        """Replace the string fields by ``share(text)``, an equal
        string (replay sharing, see ``model.package.share_strings``)."""
        fields = self.__dict__
        for name in ("upstream", "revision", "raw"):
            fields[name] = share(fields[name])

    def compare(self, other: "Version") -> int:
        """Three-way Debian comparison: -1, 0 or +1."""
        if self._key == other._key:
            return 0
        return -1 if self._key < other._key else 1

    # -- numeric components (used by the similarity metric) ---------------

    def numeric_components(self) -> tuple[int, ...]:
        """All digit runs of the upstream version, in order.

        ``"9.5.14"`` -> ``(9, 5, 14)``.  Used by
        :func:`version_component_similarity`.
        """
        return self._numeric


def version_component_similarity(v1: Version, v2: Version) -> float:
    """Graded similarity between two versions in ``[0, 1]``.

    The paper's package-similarity metric grades version proximity rather
    than requiring strict equality.  We use the fraction of matching
    *leading* numeric components (major, minor, patch, ...), which is 1.0
    for identical versions, high for versions in the same release train
    and 0.0 when even the major version differs:

    >>> from repro.model.versions import Version as V
    >>> version_component_similarity(V.parse("9.5.14"), V.parse("9.5.14"))
    1.0
    >>> version_component_similarity(V.parse("9.5.14"), V.parse("9.5.2"))
    0.6666666666666666
    >>> version_component_similarity(V.parse("9.5"), V.parse("10.1"))
    0.0
    """
    if v1.compare(v2) == 0:
        return 1.0
    c1 = v1.numeric_components()
    c2 = v2.numeric_components()
    if not c1 or not c2:
        return 0.0
    depth = max(len(c1), len(c2))
    matched = 0
    for a, b in zip(c1, c2, strict=False):
        if a != b:
            break
        matched += 1
    return matched / depth
