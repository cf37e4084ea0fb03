"""Parser for herd-style C litmus tests.

The paper's test corpus is written in a subset of C extended with LK
primitives (Section 5).  This module parses that format::

    C MP+wmb+rmb

    {
     x=0;
     y=0;
    }

    P0(int *x, int *y)
    {
        WRITE_ONCE(*x, 1);
        smp_wmb();
        WRITE_ONCE(*y, 1);
    }

    P1(int *x, int *y)
    {
        int r0;
        int r1;

        r0 = READ_ONCE(*y);
        smp_rmb();
        r1 = READ_ONCE(*x);
    }

    exists (1:r0=1 /\\ 1:r1=0)

Supported statements: ONCE/acquire/release accesses, plain accesses, all
fences of Tables 3 and 4, ``xchg`` variants, ``cmpxchg``,
``rcu_dereference`` / ``rcu_assign_pointer``, ``spin_lock`` /
``spin_unlock``, ``if``/``else``, and local register arithmetic.
"""

from __future__ import annotations

import re
from typing import Dict, List, NoReturn, Optional, Tuple

from repro.events import Pointer, Value
from repro.litmus.ast import (
    BinOp,
    CmpXchg,
    Const,
    Expr,
    If,
    Instruction,
    Load,
    LocalAssign,
    Program,
    Reg,
    Rmw,
    Store,
    Thread,
    UnOp,
)
from repro.litmus import dsl
from repro.litmus.outcomes import (
    And,
    Condition,
    Exists,
    Forall,
    LocValue,
    Not,
    NotExists,
    Or,
    RegValue,
)


class ParseError(Exception):
    """Malformed litmus input, with source location when known.

    Renders compiler-style — ``path:line:column: message`` — so editors
    and CI annotations can jump to the offending token.  ``line`` and
    ``column`` are 1-based; any location part may be absent (e.g. a
    missing header has no token to point at).
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        path: Optional[str] = None,
    ):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.path = path

    def __str__(self) -> str:
        parts = []
        if self.path is not None:
            parts.append(str(self.path))
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        if not parts:
            return self.message
        return f"{':'.join(parts)}: {self.message}"


#: One token: a name, a number or an operator.  Whitespace matches no
#: alternative, so ``findall`` over a comment-free line returns exactly
#: its tokens; it silently skips a character no token starts with, which
#: ``_scan`` then detects.
_TOKEN = (
    r"[A-Za-z_][A-Za-z0-9_]*|\d+"
    r"|/\\|\\/|==|!=|<=|>=|&&|\|\||[{}()\[\];,=*&+\-<>!~:|^]"
)
_TOKEN_RE = re.compile(_TOKEN)
#: A comment, else a token.  Scanning with it from the start of the text
#: meets every comment exactly where a token-by-token scan would, which
#: matters because ``(*`` also starts ``READ_ONCE(*x)``: it opens a
#: comment only when a ``*)`` follows somewhere.  This and the next
#: pattern serve rare paths, so ``re`` compiles them on first use.
_COMMENT = r"(?s)(//[^\n]*|\(\*.*?\*\)|/\*.*?\*/)|" + _TOKEN
#: A token, else the character that no token starts with.
_BAD_CHARACTER = _TOKEN + r"|(\S)"

_HEADER_RE = re.compile(
    r"^\s*(?:(?://|\(\*|/\*).*?\n)*\s*(?:C|LK|Linux)[ \t]+(?P<name>\S+)[ \t]*\n",
    re.DOTALL,
)

#: Fence primitive names recognised as statements.
_FENCES = {
    "smp_mb": dsl.smp_mb,
    "smp_rmb": dsl.smp_rmb,
    "smp_wmb": dsl.smp_wmb,
    "smp_read_barrier_depends": dsl.smp_read_barrier_depends,
    "rcu_read_lock": dsl.rcu_read_lock,
    "rcu_read_unlock": dsl.rcu_read_unlock,
    "synchronize_rcu": dsl.synchronize_rcu,
}

_RMW_NAMES = {"xchg", "xchg_relaxed", "xchg_acquire", "xchg_release"}
_CMPXCHG_NAMES = {
    "cmpxchg": "xchg",
    "cmpxchg_relaxed": "xchg_relaxed",
    "cmpxchg_acquire": "xchg_acquire",
    "cmpxchg_release": "xchg_release",
}
_TYPE_WORDS = {"int", "long", "unsigned", "volatile", "atomic_t", "void", "char"}
_LOAD_TAGS = {"READ_ONCE": "once", "smp_load_acquire": "acquire", "rcu_dereference": "once"}

#: Binary operator -> binding power, loosest first, as in C.  Every
#: level is left-associative.
_BINDING = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "+": 8, "-": 8,
}


def _blank_comment(match: "re.Match[str]") -> str:
    comment = match.group(1)
    if comment is None:
        return match.group()
    # Spaces keep every later line number and column where it was.
    return re.sub(r"[^\n]", " ", comment)


def _scan(body: str, first_line: int) -> Tuple[List[str], List[int], List[str]]:
    """Tokens, the line of each, and the (comment-blanked) source lines.

    One ``findall`` per line does the scanning; the Python-level work is
    per line, not per token.  A character that no token starts with is
    skipped by ``findall``, so the tokens then cover fewer characters
    than the source holds outside whitespace: only in that case is the
    line scanned again to locate the character.
    """
    if "//" in body or "/*" in body or "*)" in body:
        body = re.sub(_COMMENT, _blank_comment, body)
    lines = body.split("\n")
    tokens: List[str] = []
    token_lines: List[int] = []
    findall = _TOKEN_RE.findall
    for number, line in enumerate(lines, first_line):
        found = findall(line)
        if found:
            tokens += found
            token_lines += [number] * len(found)
    if len("".join(tokens)) != len("".join(body.split())):
        for number, line in enumerate(lines, first_line):
            for match in re.finditer(_BAD_CHARACTER, line):
                if match.group(1) is not None:
                    raise ParseError(
                        f"unexpected character {match.group(1)!r}",
                        line=number,
                        column=match.start() + 1,
                    )
    return tokens, token_lines, lines


def parse_litmus(text: str, path: Optional[str] = None) -> Program:
    """Parse a litmus test from its textual form.

    ``path``, when given, is attached to any :class:`ParseError` so the
    error renders as ``path:line:column: message``.  Internal parser
    slips (stray ``KeyError``/``IndexError``/``ValueError``) are
    converted to :class:`ParseError` too — malformed input never escapes
    as an unrelated exception type.
    """
    try:
        return _parse_litmus(text)
    except ParseError as error:
        if error.path is None:
            error.path = path
        raise
    except (KeyError, IndexError, ValueError) as error:
        raise ParseError(
            f"malformed litmus test ({type(error).__name__}: {error})",
            path=path,
        ) from error


def _parse_litmus(text: str) -> Program:
    header = _HEADER_RE.match(text)
    if header is None:
        raise ParseError(
            'litmus test must start with a header line such as "C <name>"',
            line=1,
            column=1,
        )
    end = header.end()
    parser = _Parser(text[end:], first_line=text.count("\n", 0, end) + 1)
    return parser.parse_program(header.group("name"))


class _Parser:
    """Recursive descent over one test's tokens, with an indexed cursor.

    ``toks`` ends in two ``None`` sentinels, so reading the next token,
    or the one after it, is a plain index: ``toks[i]`` is ``None`` once
    the input is used up.  Only the line of each token is kept; a
    column is computed when an error is raised.
    """

    def __init__(self, body: str, first_line: int):
        tokens, self.lines, self._source_lines = _scan(body, first_line)
        self.n = len(tokens)
        self.toks: List[Optional[str]] = tokens + [None, None]
        self.i = 0
        self._first_line = first_line
        #: Registers declared so far in the thread being parsed.
        self.registers: set = set()

    # -- cursor ---------------------------------------------------------------

    def fail(self, message: str) -> NoReturn:
        """Raise a :class:`ParseError` at the next token (the last one
        once the input is used up)."""
        if not self.n:
            raise ParseError(message)
        index = min(self.i, self.n - 1)
        line = self.lines[index]
        nth = index - self.lines.index(line)
        source = self._source_lines[line - self._first_line]
        start = [match.start() for match in _TOKEN_RE.finditer(source)][nth]
        raise ParseError(message, line=line, column=start + 1)

    def next(self) -> str:
        token = self.toks[self.i]
        if token is None:
            self.fail("unexpected end of input")
        self.i += 1
        return token

    def expect(self, token: str) -> None:
        got = self.toks[self.i]
        if got != token:
            if got is None:
                self.fail(f"expected {token!r}, got end of input")
            self.fail(f"expected {token!r}, got {got!r}")
        self.i += 1

    def accept(self, token: str) -> bool:
        if self.toks[self.i] == token:
            self.i += 1
            return True
        return False

    def _skip_declarator(self) -> None:
        """Skip the type words and ``*``s before a declared name."""
        toks = self.toks
        while toks[self.i] in _TYPE_WORDS:
            self.i += 1
        while toks[self.i] == "*":
            self.i += 1

    # -- program ----------------------------------------------------------------

    def parse_program(self, name: str) -> Program:
        init: Dict[str, Value] = {}
        if self.toks[0] == "{":
            init = self._parse_init()

        threads: List[Tuple[int, Thread]] = []
        while self._at_thread_header():
            threads.append(self._parse_thread())
        if not threads:
            self.fail(f"litmus test {name!r} has no threads")
        threads.sort(key=lambda pair: pair[0])
        if [tid for tid, _ in threads] != list(range(len(threads))):
            self.fail(f"thread ids must be P0..P{len(threads) - 1}")

        condition: Optional[Condition] = None
        if self.i < self.n:
            condition = self._parse_condition()
        if self.i < self.n:
            self.fail(f"trailing input starting at {self.toks[self.i]!r}")
        return Program(name, tuple(th for _, th in threads), init, condition)

    def _at_thread_header(self) -> bool:
        token = self.toks[self.i]
        return (
            token is not None
            and token[:1] == "P"
            and token[1:].isdecimal()
            and self.toks[self.i + 1] == "("
        )

    def _parse_init(self) -> Dict[str, Value]:
        self.expect("{")
        init: Dict[str, Value] = {}
        while not self.accept("}"):
            # Skip type words: "int *p = &x;" or "int x = 1;".
            self._skip_declarator()
            name = self.next()
            if self.accept("="):
                init[name] = self._parse_value()
            else:
                init[name] = 0
            self.accept(";")
        return init

    def _parse_value(self) -> Value:
        """An initial or final value: a number, ``&x``, or a bare
        location name (herd allows ``y=x`` for an address)."""
        if self.accept("&"):
            return Pointer(self.next())
        negative = self.accept("-")
        token = self.next()
        if token.isdecimal():
            return -int(token) if negative else int(token)
        if negative:
            self.i -= 1
            self.fail(f"expected a number after '-', got {token!r}")
        return Pointer(token)

    def _parse_thread(self) -> Tuple[int, Thread]:
        tid = int(self.toks[self.i][1:])
        self.i += 2  # the header and its "(", checked by _at_thread_header
        # Skip the parameters: each names a shared location, as any name
        # that is not a declared register does.
        toks = self.toks
        i = self.i
        while toks[i] != ")":
            while toks[i] in _TYPE_WORDS:
                i += 1
            while toks[i] == "*":
                i += 1
            if toks[i] is None:
                self.i = i
                self.fail("unexpected end of input")
            i += 1
            if toks[i] == ",":
                i += 1
        self.i = i + 1
        self.registers = set()
        return tid, Thread(tuple(self._parse_block()))

    # -- statements -------------------------------------------------------------

    def _parse_block(self) -> List[Instruction]:
        self.expect("{")
        body: List[Instruction] = []
        toks = self.toks
        while toks[self.i] != "}":
            body.extend(self._parse_statement())
        self.i += 1
        return body

    def _parse_statement(self) -> List[Instruction]:
        line = self.lines[min(self.i, self.n - 1)]
        instructions = self._parse_statement_inner()
        for instruction in instructions:
            # Nested instructions (If bodies) were stamped by their own
            # _parse_statement call; only fill in the outermost ones.
            if instruction.lineno is None:
                object.__setattr__(instruction, "lineno", line)
        return instructions

    def _parse_statement_inner(self) -> List[Instruction]:
        toks = self.toks
        token = toks[self.i]
        if token is None:
            self.fail("unexpected end of thread body")

        if token == ";":
            self.i += 1
            return []
        if token == "if":
            return [self._parse_if()]
        if token in _TYPE_WORDS:
            return self._parse_declaration()
        if token in _FENCES and toks[self.i + 1] == "(":
            self.i += 2
            self.expect(")")
            self.expect(";")
            return [_FENCES[token]()]
        if token in ("WRITE_ONCE", "smp_store_release", "rcu_assign_pointer"):
            self.i += 1
            return [self._parse_store_call(token)]
        if token in ("spin_lock", "spin_unlock"):
            self.i += 1
            self.expect("(")
            addr = self._parse_address()
            self.expect(")")
            self.expect(";")
            maker = dsl.spin_lock if token == "spin_lock" else dsl.spin_unlock
            return [maker(addr)]
        if token == "*":
            # Plain store through a pointer: "*x = e;".
            self.i += 1
            addr = self._parse_primary_address()
            self.expect("=")
            value = self._parse_expression()
            self.expect(";")
            return [Store(addr, value, "plain")]
        # Otherwise: "reg = ..." assignment.
        name = self.next()
        self.registers.add(name)
        self.expect("=")
        return self._finish_register_assignment(name)

    def _parse_declaration(self) -> List[Instruction]:
        self._skip_declarator()
        name = self.next()
        self.registers.add(name)
        if self.accept(";"):
            return []
        self.expect("=")
        return self._finish_register_assignment(name)

    def _finish_register_assignment(self, register: str) -> List[Instruction]:
        token = self.toks[self.i]
        if token in _LOAD_TAGS:
            self.i += 1
            self.expect("(")
            addr = self._parse_address()
            self.expect(")")
            self.expect(";")
            load = Load(register, addr, _LOAD_TAGS[token], rb_dep=token == "rcu_dereference")
            return [load]
        if token in _RMW_NAMES:
            self.i += 1
            self.expect("(")
            addr = self._parse_address()
            self.expect(",")
            value = self._parse_expression()
            self.expect(")")
            self.expect(";")
            return [Rmw(register, addr, value, token)]
        if token in _CMPXCHG_NAMES:
            self.i += 1
            self.expect("(")
            addr = self._parse_address()
            self.expect(",")
            expected = self._parse_expression()
            self.expect(",")
            new_value = self._parse_expression()
            self.expect(")")
            self.expect(";")
            return [CmpXchg(register, addr, expected, new_value, _CMPXCHG_NAMES[token])]
        if token == "*":
            self.i += 1
            addr = self._parse_primary_address()
            self.expect(";")
            return [Load(register, addr, "plain")]
        value = self._parse_expression()
        self.expect(";")
        return [LocalAssign(register, value)]

    def _parse_store_call(self, call: str) -> Store:
        self.expect("(")
        addr = self._parse_address()
        self.expect(",")
        value = self._parse_expression()
        self.expect(")")
        self.expect(";")
        return Store(addr, value, "once" if call == "WRITE_ONCE" else "release")

    def _parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self._parse_expression()
        self.expect(")")
        then = self._parse_branch()
        orelse: List[Instruction] = []
        if self.accept("else"):
            orelse = self._parse_branch()
        return If(cond, tuple(then), tuple(orelse))

    def _parse_branch(self) -> List[Instruction]:
        if self.toks[self.i] == "{":
            return self._parse_block()
        return self._parse_statement()

    # -- addresses and expressions ---------------------------------------------

    def _parse_address(self) -> Expr:
        """An address argument: ``*x``, ``x``, ``&x``, or ``*r`` for a
        register holding a pointer."""
        token = self.toks[self.i]
        if token == "*":
            self.i += 1
        elif token == "&":
            self.i += 1
            return Const(Pointer(self.next()))
        return self._parse_primary_address()

    def _parse_primary_address(self) -> Expr:
        name = self.next()
        if name == "(":
            # A computed address, e.g. the diy false dependency
            # "*((&y + (r0 & 0)))".
            addr = self._parse_expression()
            self.expect(")")
            return addr
        if name in self.registers:
            return Reg(name)
        # Parameters and undeclared names denote shared locations.
        return Const(Pointer(name))

    def _parse_expression(self, min_binding: int = 1) -> Expr:
        """Precedence climbing: operands bind to the operator whose
        ``_BINDING`` is at least ``min_binding``; the right operand of a
        level-``b`` operator takes only tighter ones, so equal levels
        group to the left."""
        lhs = self._parse_unary()
        toks = self.toks
        while True:
            op = toks[self.i]
            binding = _BINDING.get(op)  # type: ignore[arg-type]
            if binding is None or binding < min_binding:
                return lhs
            self.i += 1
            lhs = BinOp(op, lhs, self._parse_expression(binding + 1))

    def _parse_unary(self) -> Expr:
        token = self.next()
        if token == "!" or token == "-":
            return UnOp(token, self._parse_unary())
        if token == "&":
            return Const(Pointer(self.next()))
        if token == "(":
            expr = self._parse_expression()
            self.expect(")")
            return expr
        if token.isdecimal():
            return Const(int(token))
        if token in self.registers:
            return Reg(token)
        # A parameter used as a value is the pointer itself.
        return Const(Pointer(token))

    # -- final-state conditions -------------------------------------------------

    def _parse_condition(self) -> Condition:
        negated = self.accept("~")
        quantifier = self.next()
        if quantifier not in ("exists", "forall"):
            self.i -= 1
            self.fail(f"expected exists/forall, got {quantifier!r}")
        body = self._parse_cond_or()
        if quantifier == "forall":
            if negated:
                self.fail("~forall is not supported")
            return Forall(body)
        return NotExists(body) if negated else Exists(body)

    def _parse_cond_or(self) -> Condition:
        lhs = self._parse_cond_and()
        while self.accept("\\/"):
            lhs = Or(lhs, self._parse_cond_and())
        return lhs

    def _parse_cond_and(self) -> Condition:
        lhs = self._parse_cond_atom()
        while self.accept("/\\"):
            lhs = And(lhs, self._parse_cond_atom())
        return lhs

    def _parse_cond_atom(self) -> Condition:
        first = self.next()
        if first == "~" or first == "not":
            return Not(self._parse_cond_atom())
        if first == "(":
            cond = self._parse_cond_or()
            self.expect(")")
            return cond
        if first.isdecimal() and self.toks[self.i] == ":":
            self.i += 1
            register = self.next()
            self.expect("=")
            return RegValue(int(first), register, self._parse_value())
        self.expect("=")
        return LocValue(first, self._parse_value())
