"""The error classes, the default enumeration cap and ``read_text``, the reader of
every input file.

This module imports no numpy and no other galcount module, so the CLI can build
its parser and map each error to its exit code before a command loads the layers
it runs.  The defining layers re-export these names, so ``galcount.perms.CycleParseError``
and the other old import paths still name the same objects.
"""

from __future__ import annotations

from typing import Callable

DEFAULT_CAP = 10**6


class CycleParseError(ValueError):
    """Cycle expression is malformed, out of range, or repeats a point."""


class EnumerationCapError(RuntimeError):
    """Group closure exceeded the element cap; the group is too large for exhaustive methods."""


class GroupSpecError(ValueError):
    """A group expression or group file cannot be parsed."""


class CensusFormatError(ValueError):
    """A census violates the ``degree,group,abs_disc`` format."""


class InsufficientSamplesError(ValueError):
    """Fewer than three usable samples with distinct x."""


class InconsistentDualRep(ValueError):
    """The two generator lists do not present the same abstract group."""


def read_text(path: str, error: Callable[[str], Exception]) -> str:
    """The text of the UTF-8 file at ``path`` as read in text mode: a leading byte-order
    mark skipped, and ``\\r\\n`` and ``\\r`` read as ``\\n``, the only line end a reader
    splits at.  A file that cannot be read raises ``error("cannot read 'PATH': reason")``,
    and a byte that is not UTF-8 raises ``error("line N: not valid UTF-8")``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise error(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        # under surrogateescape each undecodable byte reads as a lone surrogate,
        # which valid UTF-8 never decodes to
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            bad = (n for n, line in enumerate(handle, start=1) if any("\udc80" <= c <= "\udcff" for c in line))
            raise error(f"line {next(bad, '?')}: not valid UTF-8") from None
