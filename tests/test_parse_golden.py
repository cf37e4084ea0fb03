"""The litmus front end's output, frozen across commits.

``tests/data/parse_golden.json`` pins two tables:

* ``programs`` — for every golden-corpus row, library test,
  ``examples/litmus/*.litmus`` file and litmus file under
  ``tests/data``: a digest of every field of the parsed program (name,
  threads, init, condition), every instruction's ``lineno`` included,
  down into ``If`` arms;
* ``mutations`` — for 1,200 seeded mutations of golden-corpus sources
  (truncations, a stray character from ``@$#?/"``, a deleted character,
  an unterminated ``/*`` comment) and for the hand-written
  ``EDGE_CASES`` (comments, odd whitespace, non-ASCII characters), the
  exact ``str(ParseError)``, or the digest of the program when the
  input still parses.

A parser rewrite must reproduce both byte for byte: the same trees, the
same line numbers and the same located error messages.  After an
intentional change to the front end, regenerate and review the diff::

    PYTHONPATH=src python -m tests.test_parse_golden
    git diff tests/data/parse_golden.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.litmus import library
from repro.litmus.parser import ParseError, parse_litmus

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
SNAPSHOT_PATH = DATA / "parse_golden.json"
GOLDEN_CORPUS = DATA / "golden_corpus.jsonl"

MUTATION_SEED = 2018
MUTATIONS_PER_KIND = 300
STRAY_CHARACTERS = '@$#?/"'
MUTATION_KINDS = ("truncate", "stray", "delete", "open-comment")


def golden_sources():
    rows = [json.loads(line) for line in GOLDEN_CORPUS.read_text().splitlines() if line]
    return [(row["name"], row["litmus"]) for row in rows]


def all_sources():
    """(key, source) for every litmus source the repository ships."""
    sources = [(f"corpus/{name}", text) for name, text in golden_sources()]
    sources += [(f"library/{name}", library.SOURCES[name]) for name in library.all_names()]
    for directory in (ROOT / "examples" / "litmus", DATA):
        for path in sorted(directory.rglob("*.litmus")):
            sources.append((str(path.relative_to(ROOT)), path.read_text()))
    return sources


def _dump(value):
    """Every field of a parsed value, recursively.  The AST's own
    ``repr``s leave fields out (``rb_dep``, ``lineno``, a program's
    threads), so the digest walks the dataclass fields instead."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (field.name, _dump(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(_dump(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, _dump(item)) for key, item in value.items())
    return f"{type(value).__name__}:{value!r}"


def program_digest(program) -> str:
    """Every field of the program, each instruction's ``lineno`` included."""
    return hashlib.sha256(repr(_dump(program)).encode()).hexdigest()[:16]


def outcome(text: str) -> str:
    """What the front end makes of ``text``: a digest or the error."""
    try:
        program = parse_litmus(text, path="mutant.litmus")
    except ParseError as error:
        return f"error: {error}"
    except Exception as error:  # pinned as well: a parser slip is output too
        return f"{type(error).__name__}: {error}"
    return f"ok {program_digest(program)}"


def mutations():
    """(key, mutated source) for the seeded mutations of golden sources."""
    rng = random.Random(MUTATION_SEED)
    sources = golden_sources()
    out = []
    for kind in MUTATION_KINDS:
        for _ in range(MUTATIONS_PER_KIND):
            name, text = sources[rng.randrange(len(sources))]
            at = rng.randrange(len(text))
            if kind == "truncate":
                mutant = text[:at]
            elif kind == "stray":
                mutant = text[:at] + rng.choice(STRAY_CHARACTERS) + text[at:]
            elif kind == "delete":
                mutant = text[:at] + text[at + 1:]
            else:
                mutant = text[:at] + "/*" + text[at:]
            out.append((f"{len(out):04d} {kind}@{at} {name}", mutant))
    return out


_MP_BODY = """{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    if (r0 == 1 && !(r0 - 1 | 2 ^ 3 & 4 != 5 <= 6 + 7)) {
        int r1 = READ_ONCE(*x);
    } else r1 = 2;
}
exists (1:r0=1 /\\ 1:r1=0)
"""

#: Hand-written inputs for what the golden sources never contain:
#: comments of all three kinds (a ``(*`` only opens one when a ``*)``
#: follows), odd whitespace, non-ASCII characters and bare headers.
EDGE_CASES = {
    "plain": "C MP\n" + _MP_BODY,
    "line-comments": "C MP\n" + _MP_BODY.replace(";\n", "; // done\n"),
    "block-comment": "C MP\n/* a\n multi-line\n comment */" + _MP_BODY,
    "herd-comment": "(* before\n the header *)\nC MP\n(* and\n after *)\n" + _MP_BODY,
    "comment-closes-deref": "C MP\n" + _MP_BODY.replace("READ_ONCE(*x)", "READ_ONCE(*)"),
    "comment-in-comment": "C MP\n// a /* inside\n" + _MP_BODY + "/* // */\n",
    "or-then-comment": "C MP\n" + _MP_BODY.replace("/\\", "\\//"),
    "trailing-comment": "C MP\n" + _MP_BODY + "// no newline",
    "unterminated-herd": "C MP\n" + _MP_BODY + "(* open",
    "crlf": "C MP\n" + _MP_BODY.replace("\n", "\r\n"),
    "tabs-and-nbsp": "C MP\n" + _MP_BODY.replace("    ", "\t\u00a0"),
    "unicode-letter": "C MP\n" + _MP_BODY.replace("r0", "r\u00e9"),
    "unicode-digit": "C MP\n" + _MP_BODY.replace("*x, 1", "*x, \u0663"),
    "digit-then-name": "C MP\n" + _MP_BODY.replace("int r0", "int 1r0"),
    "header-only": "C MP\n",
    "header-and-init": "C MP\n{ x=0; }\n",
    "no-header": _MP_BODY,
    "empty": "",
}


def program_digests():
    return {key: program_digest(parse_litmus(text)) for key, text in all_sources()}


def mutation_outcomes():
    table = {f"edge {key}": outcome(text) for key, text in EDGE_CASES.items()}
    table.update((key, outcome(text)) for key, text in mutations())
    return table


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT_PATH.read_text())


def _drifted(expected, actual):
    return sorted(
        key for key in set(expected) | set(actual)
        if expected.get(key) != actual.get(key)
    )


def test_parsed_programs_match_snapshot(snapshot):
    assert _drifted(snapshot["programs"], program_digests()) == []


def test_mutation_outcomes_match_snapshot(snapshot):
    assert _drifted(snapshot["mutations"], mutation_outcomes()) == []


def test_mutations_reach_the_error_paths(snapshot):
    """The frozen sample exercises located errors of every kind, not
    just one message."""
    errors = [text for text in snapshot["mutations"].values() if text.startswith("error")]
    assert len(errors) > len(snapshot["mutations"]) // 2
    for fragment in ("unexpected character", "unexpected end of input", "expected"):
        assert any(fragment in text for text in errors), fragment


if __name__ == "__main__":
    SNAPSHOT_PATH.write_text(
        json.dumps(
            {"programs": program_digests(), "mutations": mutation_outcomes()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")
