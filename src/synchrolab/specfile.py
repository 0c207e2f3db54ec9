"""Shift spec files: a one-declaration-per-line text format.

::

    # golden mean shift
    alphabet: 0 1
    type: sft
    forbid: 11
    point: zeros L=0 C= O=0 R=0

Sofic shifts declare ``state:`` and ``edge: SRC LABEL DST`` lines; the
type ``oracle:<name>`` selects a builtin membership oracle.  Builtin
specs are looked up by name when no file exists at the given path.
"""

import os
from dataclasses import dataclass, field

from synchrolab.errors import ParseError, SemanticError
from synchrolab.oracles import BUILTIN_ORACLES
from synchrolab.points import BiSeq, format_word
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic


@dataclass
class SpecFile:
    """A parsed shift spec: the shift plus named points and metadata."""

    path: str
    shift: object
    points: dict = field(default_factory=dict)
    name: str = ""


def parse_word(text, alphabet=None):
    """Parses a word literal: characters, or comma-separated symbols.

    A bare multi-character symbol of the alphabet (such as a product
    symbol ``0|1``) is accepted as a one-symbol word.  The empty string
    is the empty word; ``ε`` is accepted too.
    """
    if text in ("", "ε"):
        return ()
    if "," in text:
        symbols = tuple(text.split(","))
    elif alphabet is not None and text in alphabet:
        symbols = (text,)
    else:
        symbols = tuple(text)
    if alphabet is not None:
        for s in symbols:
            if s not in alphabet:
                raise SemanticError(f"symbol {s!r} not in the declared alphabet")
    return symbols


def parse_point(text, alphabet=None):
    """Parses a point literal ``L=<word> C=<word> O=<int> R=<word>``."""
    fields = {}
    for chunk in text.split():
        key, eq, value = chunk.partition("=")
        if not eq or key not in ("L", "C", "O", "R"):
            raise ParseError(f"bad point field {chunk!r}")
        if key in fields:
            raise ParseError(f"duplicate point field {key}")
        fields[key] = value
    for key in ("L", "O", "R"):
        if key not in fields:
            raise ParseError(f"point literal is missing {key}=")
    try:
        origin = int(fields["O"])
    except ValueError as exc:
        raise ParseError(f"bad origin {fields['O']!r}") from exc
    left = parse_word(fields["L"], alphabet)
    core = parse_word(fields.get("C", ""), alphabet)
    right = parse_word(fields["R"], alphabet)
    if not left or not right:
        raise ParseError("cycle words of a point literal must be non-empty")
    return BiSeq(left, core, right, origin)


def parse_spec_text(text, path="<string>"):
    """Parses spec text into a ``SpecFile``."""
    alphabet = None
    kind = None
    oracle_name = None
    states = []
    edges = []
    forbidden = []
    point_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not colon:
            raise ParseError("expected 'key: value'", line=lineno)
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate alphabet", line=lineno)
            try:
                alphabet = Alphabet(tuple(value.split()))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
        elif key == "type":
            if kind is not None:
                raise ParseError("duplicate type", line=lineno)
            if value.startswith("oracle:"):
                kind = "oracle"
                oracle_name = value.split(":", 1)[1]
            elif value in ("sft", "sofic"):
                kind = value
            else:
                raise ParseError(f"unknown type {value!r}", line=lineno)
        elif key == "state":
            states.append(value)
        elif key == "edge":
            parts = value.split()
            if len(parts) != 3:
                raise ParseError("edge lines read 'edge: SRC LABEL DST'", line=lineno)
            edges.append(tuple(parts))
        elif key == "forbid":
            if not parse_word(value):
                raise ParseError("forbidden words must have length >= 1", line=lineno)
            forbidden.append((lineno, value))
        elif key == "point":
            name, _, literal = value.partition(" ")
            if not literal:
                raise ParseError("point lines read 'point: NAME <literal>'",
                                 line=lineno)
            if name in point_lines:
                raise ParseError(f"duplicate point {name!r}", line=lineno)
            point_lines[name] = (lineno, literal)
        else:
            raise ParseError(f"unknown key {key!r}", line=lineno)
    if alphabet is None:
        raise ParseError("spec declares no alphabet")
    if kind is None:
        raise ParseError("spec declares no type")
    if kind == "sft":
        if states or edges:
            raise SemanticError("sft specs take forbid lines, not states/edges")
        shift = build_sft(alphabet, {_at_line(lineno, parse_word, w, alphabet)
                                     for lineno, w in forbidden})
    elif kind == "sofic":
        if forbidden:
            raise SemanticError("sofic specs take edge lines, not forbid lines")
        declared = set(states)
        for (src, label, dst) in edges:
            if src not in declared or dst not in declared:
                raise SemanticError(f"edge uses undeclared state {src} or {dst}")
            if label not in alphabet:
                raise SemanticError(f"edge label {label!r} not in alphabet")
        shift = build_sofic(alphabet, Presentation.build(states, edges))
    else:
        if oracle_name not in BUILTIN_ORACLES:
            raise SemanticError(f"unknown oracle {oracle_name!r}")
        shift = BUILTIN_ORACLES[oracle_name]()
        if tuple(shift.alphabet) != tuple(alphabet):
            raise SemanticError("oracle alphabet does not match the declaration")
    points = {name: _at_line(lineno, parse_point, literal, alphabet)
              for name, (lineno, literal) in point_lines.items()}
    return SpecFile(path, shift, points)


def _at_line(lineno, parse, text, alphabet):
    """``parse(text, alphabet)``, raising its errors at line ``lineno``."""
    try:
        return parse(text, alphabet)
    except (ParseError, SemanticError) as exc:
        raise ParseError(str(exc), line=lineno) from exc


def emit_spec(spec):
    """Renders a ``SpecFile`` back to spec text (round-trip partner)."""
    s = spec.shift
    lines = [f"alphabet: {' '.join(s.alphabet)}", f"type: {s.kind}"]
    if s.kind == "sft":
        for w in sorted(s.forbidden):
            lines.append(f"forbid: {format_word(w)}")
    elif s.kind == "sofic":
        for q in s.presentation.states:
            lines.append(f"state: {_state_text(q)}")
        for (src, label, dst) in s.presentation.edges:
            lines.append(f"edge: {_state_text(src)} {label} {_state_text(dst)}")
    for name in sorted(spec.points):
        lines.append(f"point: {name} {spec.points[name].literal()}")
    return "\n".join(lines) + "\n"


def _state_text(q):
    # spec lines split on whitespace: a product's pair is written without
    return q if isinstance(q, str) else "".join(repr(q).split())


BUILTIN_SPECS = {
    "goldenmean": """\
# golden mean shift: no two consecutive ones
alphabet: 0 1
type: sft
forbid: 11
point: zeros L=0 C= O=0 R=0
""",
    "even": """\
# even shift: even runs of zeros between ones
alphabet: 0 1
type: sofic
state: A
state: B
edge: A 1 A
edge: A 0 B
edge: B 0 A
point: zeros L=0 C= O=0 R=0
point: ones L=1 C= O=0 R=1
""",
    "full2": """\
# full shift on two symbols
alphabet: 0 1
type: sft
""",
    "period2": """\
# two-point orbit: strictly alternating symbols
alphabet: a b
type: sft
forbid: aa
forbid: bb
""",
    "nonsofic-ray": """\
# synchronizing non-sofic shift on the ray graph
alphabet: a b c
type: oracle:nonsofic-ray
""",
    "context-free": """\
# context-free shift: balanced b/c blocks between a's
alphabet: a b c
type: oracle:context-free
""",
}


def load_spec(ref):
    """Loads a spec from a path, or from the builtin library by name.

    A path that exists but cannot be read, such as a directory, raises
    ``ParseError``.
    """
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {ref!r}: {exc.strerror}") from exc
        spec = parse_spec_text(text, path=ref)
        spec.name = os.path.splitext(os.path.basename(ref))[0]
        spec.shift.with_name(spec.name)
        return spec
    name = ref[:-6] if ref.endswith(".shift") else ref
    if name in BUILTIN_SPECS:
        spec = parse_spec_text(BUILTIN_SPECS[name], path=f"builtin:{name}")
        spec.name = name
        spec.shift.with_name(name)
        return spec
    raise ParseError(f"no file or builtin named {ref!r}")
