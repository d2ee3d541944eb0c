"""Text grammar for naming permutation groups and the group-file formats.

Expression grammar (whitespace-insensitive):

    natural(C n) | natural(A n) | natural(S n) | dihedral(n)
    | regular(EXPR) | wreath(EXPR, EXPR) | product(EXPR, EXPR)
    | cosets(EXPR, "gen;gen;...") | sl2(p) | heis3() | file(PATH)

Group files: a ``degree=N`` line followed by ``gen=<cycles>`` lines; ``#``
starts a comment.  A paired-representation file holds two such blocks
separated by a ``---`` line, with the i-th generators aligned.

The group layers (and numpy with them) are imported when the first group is
built: an expression refused before any of its forms is complete, such as an
unknown construction name, exits without loading them.
"""

from __future__ import annotations

import re
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from .errors import DEFAULT_CAP, GroupSpecError, read_text
from .perms import parse_cycles

if TYPE_CHECKING:
    from .constructions import DualRep
    from .groups import PermGroup


def _call(name: str, *args) -> PermGroup:
    """``constructions.<name>(*args)``, the function looked up at the call."""
    from . import constructions

    return getattr(constructions, name)(*args)


_FAMILIES = {
    "C": partial(_call, "cyclic_natural"),
    "A": partial(_call, "alternating_natural"),
    "S": partial(_call, "symmetric_natural"),
}


def _cosets(group: PermGroup, gens: str, cap: int) -> PermGroup:
    """The action on the cosets of the subgroup generated by ``gens``, cycle expressions joined by ``;``."""
    parts = [part for part in gens.split(";") if part.strip()]
    if not parts:
        raise ValueError("empty generator list")
    return _call("coset_action", group, [parse_cycles(part, group.degree) for part in parts])


# Each form maps its name to its shape and its builder, which is called with the values the
# shape reads and the cap.  A shape entry is "expr" (a nested expression), an argument kind
# in _KINDS, or a token matched literally.
_KINDS = {"int": "an integer", "str": "a quoted string", "family": "C, A or S", "path": "a file path"}
_FORMS: dict[str, tuple[tuple[str, ...], Callable[..., PermGroup]]] = {
    **{letter: (("int",), build) for letter, build in _FAMILIES.items()},  # "C 4" means "natural(C 4)"
    "natural": (("(", "family", "int", ")"), lambda build, n, cap: build(n, cap)),
    "dihedral": (("(", "int", ")"), partial(_call, "dihedral_natural")),
    "regular": (("(", "expr", ")"), lambda group, cap: _call("regular_rep", group)),
    "wreath": (("(", "expr", ",", "expr", ")"), lambda a, h, cap: _call("wreath", a, h)),
    "product": (("(", "expr", ",", "expr", ")"), lambda h, z, cap: _call("direct_product", h, z)),
    "cosets": (("(", "expr", ",", "str", ")"), _cosets),
    "sl": (("2", "(", "int", ")"), partial(_call, "sl2_natural")),  # the digit is part of the name
    "heis": (("3", "(", ")"), partial(_call, "heisenberg_mod3")),
    "file": (("(", "path", ")"), lambda path, cap: load_group_file(path, cap)),
}
_TOKEN = re.compile(r'\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]+)|(?P<str>"(?:[^"\\]|\\.)*")|(?P<punct>\S))')
_PATH = re.compile(r"[^()]*")  # file(PATH) takes the text up to the next parenthesis


class _Reader:
    """Reads one group expression from ``text``, a token at a time from the character offset ``pos``."""

    def __init__(self, text: str, cap: int):
        self.text, self.pos, self.cap = text, 0, cap

    def token(self) -> tuple[Optional[str], str, int]:
        """The next token's kind (None at the end), its text and its 1-based column; reads past it."""
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            return None, "", len(self.text) + 1
        self.pos = m.end()
        return m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) + 1

    def value(self, kind: str):
        """Read one argument of a kind in _KINDS."""
        if kind == "path":
            path = _PATH.match(self.text, self.pos)
            self.pos = path.end()
            return path[0].strip().strip('"')
        found, text, column = self.token()
        if kind == "family" and found == "name":
            if text not in _FAMILIES:
                raise GroupSpecError(f"natural() family must be C, A or S, not {text!r} at column {column}")
            return _FAMILIES[text]
        if found != kind:
            raise GroupSpecError(f"expected {_KINDS[kind]} at column {column}")
        return int(text) if kind == "int" else text[1:-1]

    def expr(self) -> PermGroup:
        """Read one form and build its group; the nested expressions of its shape recurse here, one frame each."""
        found, name, column = self.token()
        if found != "name":
            raise GroupSpecError(f"expected a construction name at column {column}")
        if name not in _FORMS:
            raise GroupSpecError(f"unknown construction {name!r}")
        shape, build = _FORMS[name]
        args = []
        for want in shape:
            if want == "expr":
                args.append(self.expr())
            elif want in _KINDS:
                args.append(self.value(want))
            else:
                _, text, at = self.token()
                if text != want:
                    raise GroupSpecError(f"expected {want!r} at column {at}")
        try:
            return build(*args, self.cap)
        except GroupSpecError:
            raise
        except ValueError as exc:
            raise GroupSpecError(f"column {column}: {exc}") from None


def load_group_file(path: str, cap: int = DEFAULT_CAP) -> PermGroup:
    return parse_group_file(read_text(path, GroupSpecError), cap)


def parse_group_expr(text: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse a group expression; file(PATH) loads a group file."""
    if not text.strip():
        raise GroupSpecError("empty group expression")
    reader = _Reader(text, cap)
    try:
        group = reader.expr()
    except RecursionError:
        raise GroupSpecError("expression nested too deeply") from None
    found, rest, column = reader.token()
    if found is not None:
        raise GroupSpecError(f"trailing input after expression: {rest!r} at column {column}")
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
    from .groups import PermGroup

    return PermGroup(degree, gens, cap)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, content) for each line of ``text``, split at "\\n", that is not blank
    once its ``#`` comment is cut."""
    out = []
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_group_file(text: str, cap: int = DEFAULT_CAP) -> PermGroup:
    """Parse a single group block (degree= line plus gen= lines) from a file's text."""
    return _parse_block(_content_lines(text), cap)


def parse_paired_file(text: str) -> DualRep:
    """Parse two aligned group blocks separated by a --- line from a file's text."""
    lines = _content_lines(text)
    split_at = [i for i, (_, line) in enumerate(lines) if line == "---"]
    if len(split_at) != 1:
        raise GroupSpecError("paired file must contain exactly one --- separator")
    first = _parse_block(lines[: split_at[0]])
    second = _parse_block(lines[split_at[0] + 1 :])
    from .constructions import DualRep

    return DualRep(tuple(first.generators), tuple(second.generators))
