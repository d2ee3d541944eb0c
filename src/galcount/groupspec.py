"""Text grammar for naming permutation groups, the group-file formats, and
``open_text``, the reader of every input file.

Expression grammar (whitespace-insensitive):

    natural(C n) | natural(A n) | natural(S n) | dihedral(n)
    | regular(EXPR) | wreath(EXPR, EXPR) | product(EXPR, EXPR)
    | cosets(EXPR, "gen;gen;...") | sl2(p) | heis3() | file(PATH)

Group files: a ``degree=N`` line followed by ``gen=<cycles>`` lines; ``#``
starts a comment.  A paired-representation file holds two such blocks
separated by a ``---`` line, with the i-th generators aligned.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

from . import constructions
from .constructions import DualRep
from .groups import DEFAULT_CAP, PermGroup
from .perms import parse_cycle_list, parse_cycles


class GroupSpecError(ValueError):
    """A group expression or group file cannot be parsed."""


_TOKEN_RE = re.compile(r'\s*(?:(\d+)|([A-Za-z_]+)|("(?:[^"\\]|\\.)*")|([(),]))')
_FILE_TOKEN_RE = re.compile(r"\s*file\(([^()]*)\)")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        fm = _FILE_TOKEN_RE.match(text, pos)
        if fm is not None:
            tokens.append(("file", fm.group(1).strip().strip('"')))
            pos = fm.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise GroupSpecError(f"unexpected character at {rest!r}")
        number, name, string, punct = m.groups()
        if number is not None:
            tokens.append(("num", number))
        elif name is not None:
            tokens.append(("name", name))
        elif string is not None:
            tokens.append(("str", string[1:-1]))
        else:
            tokens.append(("punct", punct))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], cap: int):
        self.tokens = tokens
        self.pos = 0
        self.cap = cap

    def peek(self) -> Optional[tuple[str, str]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, value: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise GroupSpecError(f"expected {want!r} at position {self.pos} in expression")
        self.pos += 1
        return tok[1]

    def parse_int(self) -> int:
        return int(self.take("num"))

    def parse_expr(self) -> PermGroup:
        tok = self.peek()
        if tok is None:
            raise GroupSpecError("empty group expression")
        if tok[0] == "file":
            return load_group_file(self.take("file"), self.cap)
        if tok[0] != "name":
            raise GroupSpecError(f"expected a construction name, found {tok[1]!r}")
        name = self.take("name")
        builders = {
            "C": constructions.cyclic_natural,
            "A": constructions.alternating_natural,
            "S": constructions.symmetric_natural,
        }
        if name in builders:
            # bare shorthand: "C 4" means "natural(C 4)"
            return builders[name](self.parse_int(), self.cap)
        if name == "natural":
            self.take("punct", "(")
            family = self.take("name")
            if family not in builders:
                raise GroupSpecError(f"natural() family must be C, A or S, not {family!r}")
            n = self.parse_int()
            self.take("punct", ")")
            return builders[family](n, self.cap)
        if name == "dihedral":
            self.take("punct", "(")
            n = self.parse_int()
            self.take("punct", ")")
            return constructions.dihedral_natural(n, self.cap)
        if name == "regular":
            self.take("punct", "(")
            inner = self.parse_expr()
            self.take("punct", ")")
            return constructions.regular_rep(inner)
        if name in ("wreath", "product"):
            self.take("punct", "(")
            first = self.parse_expr()
            self.take("punct", ",")
            second = self.parse_expr()
            self.take("punct", ")")
            build = constructions.wreath if name == "wreath" else constructions.direct_product
            return build(first, second)
        if name == "cosets":
            self.take("punct", "(")
            parent = self.parse_expr()
            self.take("punct", ",")
            gens_text = self.take("str")
            self.take("punct", ")")
            try:
                subgroup_gens = parse_cycle_list(gens_text, parent.degree)
            except ValueError as exc:
                raise GroupSpecError(f"bad subgroup generators: {exc}") from None
            return constructions.coset_action(parent, subgroup_gens)
        if name == "sl":
            self.take("num", "2")
            self.take("punct", "(")
            p = self.parse_int()
            self.take("punct", ")")
            try:
                return constructions.sl2_natural(p, self.cap)
            except ValueError as exc:
                raise GroupSpecError(str(exc)) from None
        if name == "heis":
            self.take("num", "3")
            self.take("punct", "(")
            self.take("punct", ")")
            return constructions.heisenberg_mod3(self.cap)
        raise GroupSpecError(f"unknown construction {name!r}")


@contextmanager
def open_text(path: str, error: Callable[[str], Exception]) -> Iterator[TextIO]:
    """Open the UTF-8 file at ``path`` for a ``with`` block, skipping a leading byte-order
    mark; its lines are what iterating the handle gives.  A file that cannot be read
    raises ``error("cannot read 'PATH': reason")``, and a byte that is not UTF-8, met
    while the block reads, raises ``error("line N: not valid UTF-8")``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except OSError as exc:
        raise error(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        # under surrogateescape each undecodable byte reads as a lone surrogate,
        # which valid UTF-8 never decodes to
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            bad = (n for n, line in enumerate(handle, start=1) if any("\udc80" <= c <= "\udcff" for c in line))
            raise error(f"line {next(bad, '?')}: not valid UTF-8") from None


def load_group_file(path: str, cap: int = DEFAULT_CAP) -> PermGroup:
    with open_text(path, GroupSpecError) as handle:
        return parse_group_file(handle, cap)


def parse_group_expr(text: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse a group expression; file(PATH) loads a group file."""
    parser = _Parser(_tokenize(text), cap)
    group = parser.parse_expr()
    if parser.peek() is not None:
        raise GroupSpecError(f"trailing input after expression: {parser.peek()[1]!r}")
    return group


def _parse_block(lines: list[tuple[int, str]], cap: int = DEFAULT_CAP) -> PermGroup:
    degree = None
    gens = []
    for number, line in lines:
        if line.startswith("degree="):
            if degree is not None:
                raise GroupSpecError(f"line {number}: duplicate degree")
            try:
                degree = int(line[len("degree=") :].strip())
            except ValueError:
                raise GroupSpecError(f"line {number}: bad degree") from None
        elif line.startswith("gen="):
            if degree is None:
                raise GroupSpecError(f"line {number}: gen before degree")
            try:
                gens.append(parse_cycles(line[len("gen=") :].strip(), degree))
            except ValueError as exc:
                raise GroupSpecError(f"line {number}: {exc}") from None
        else:
            raise GroupSpecError(f"line {number}: expected degree= or gen=")
    if degree is None or not gens:
        raise GroupSpecError("group block needs a degree= line and at least one gen= line")
    return PermGroup(degree, gens, cap)


def _content_lines(text: Union[str, Iterable[str]]) -> list[tuple[int, str]]:
    """(line number, content) for each line that is not blank once its ``#`` comment is
    cut; a ``str`` is split by ``splitlines()``, anything else gives one line per item."""
    out = []
    for number, raw in enumerate(text.splitlines() if isinstance(text, str) else text, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_group_file(text: Union[str, Iterable[str]], cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse a single group block (degree= line plus gen= lines)."""
    return _parse_block(_content_lines(text), cap)


def parse_paired_file(text: Union[str, Iterable[str]]) -> DualRep:
    """Parse two aligned group blocks separated by a --- line."""
    lines = _content_lines(text)
    split_at = [i for i, (_, line) in enumerate(lines) if line == "---"]
    if len(split_at) != 1:
        raise GroupSpecError("paired file must contain exactly one --- separator")
    first = _parse_block(lines[: split_at[0]])
    second = _parse_block(lines[split_at[0] + 1 :])
    return DualRep(tuple(first.generators), tuple(second.generators))
