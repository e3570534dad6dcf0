"""Reference Debian version comparison for tests.

:class:`repro.model.versions.Version` compares through a sort key it
computes once per instance.  Comparing the key with itself proves
nothing, so the property suite compares it with this direct
implementation of the Debian policy algorithm instead: both strings
re-scanned on every call, alternating maximal non-digit and digit runs,
with ``~`` sorting before everything (the end of a string included).
"""

from __future__ import annotations

from repro.model.versions import Version

__all__ = ["compare_debian_string", "reference_compare"]


def _char_order(c: str) -> int:
    """Debian character ordering: ``~`` < end < letters < non-letters."""
    if c == "~":
        return -1
    if c.isalpha():
        return ord(c)
    # non-alphanumeric characters sort after letters
    return ord(c) + 256


def _compare_nondigit(a: str, b: str) -> int:
    """Compare two non-digit runs under Debian character ordering."""
    for ca, cb in zip(a, b, strict=False):
        oa, ob = _char_order(ca), _char_order(cb)
        if oa != ob:
            return -1 if oa < ob else 1
    if len(a) == len(b):
        return 0
    # the shorter string wins unless the longer continues with '~'
    longer, sign = (b, -1) if len(a) < len(b) else (a, 1)
    tail = longer[min(len(a), len(b))]
    if tail == "~":
        return -sign
    return sign


def compare_debian_string(a: str, b: str) -> int:
    """Compare upstream-version or revision strings per Debian policy."""
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        # non-digit run
        ja = ia
        while ja < len(a) and not a[ja].isdigit():
            ja += 1
        jb = ib
        while jb < len(b) and not b[jb].isdigit():
            jb += 1
        cmp = _compare_nondigit(a[ia:ja], b[ib:jb])
        if cmp != 0:
            return cmp
        ia, ib = ja, jb
        # digit run
        ja = ia
        while ja < len(a) and a[ja].isdigit():
            ja += 1
        jb = ib
        while jb < len(b) and b[jb].isdigit():
            jb += 1
        na = int(a[ia:ja]) if ja > ia else 0
        nb = int(b[ib:jb]) if jb > ib else 0
        if na != nb:
            return -1 if na < nb else 1
        ia, ib = ja, jb
    return 0


def reference_compare(a: Version, b: Version) -> int:
    """Three-way Debian comparison of two versions: -1, 0 or +1."""
    if a.epoch != b.epoch:
        return -1 if a.epoch < b.epoch else 1
    cmp = compare_debian_string(a.upstream, b.upstream)
    if cmp != 0:
        return cmp
    return compare_debian_string(a.revision, b.revision)
