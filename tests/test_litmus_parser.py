"""Tests for the herd-style C litmus parser."""

import pytest

from repro.events import Pointer
from repro.litmus.ast import (
    BinOp,
    CmpXchg,
    Const,
    Fence,
    If,
    Load,
    LocalAssign,
    Reg,
    Rmw,
    Store,
)
from repro.litmus.outcomes import (
    And,
    Exists,
    Forall,
    LocValue,
    Not,
    NotExists,
    Or,
    RegValue,
)
from repro.litmus.parser import ParseError, parse_litmus

MP = """
C MP+wmb+rmb
{ x=0; y=0; }
P0(int *x, int *y)
{
    WRITE_ONCE(*x, 1);
    smp_wmb();
    WRITE_ONCE(*y, 1);
}
P1(int *x, int *y)
{
    int r0 = READ_ONCE(*y);
    smp_rmb();
    int r1 = READ_ONCE(*x);
}
exists (1:r0=1 /\\ 1:r1=0)
"""


class TestBasicParsing:
    def test_name(self):
        assert parse_litmus(MP).name == "MP+wmb+rmb"

    def test_threads(self):
        program = parse_litmus(MP)
        assert program.num_threads == 2
        assert len(program.threads[0]) == 3
        assert len(program.threads[1]) == 3

    def test_init(self):
        assert parse_litmus(MP).init == {"x": 0, "y": 0}

    def test_instructions(self):
        program = parse_litmus(MP)
        w, f, w2 = program.threads[0].body
        assert isinstance(w, Store) and w.tag == "once"
        assert w.addr == Const(Pointer("x"))
        assert isinstance(f, Fence) and f.tag == "wmb"
        r, f2, r2 = program.threads[1].body
        assert isinstance(r, Load) and r.reg == "r0" and r.tag == "once"
        assert isinstance(f2, Fence) and f2.tag == "rmb"

    def test_condition(self):
        condition = parse_litmus(MP).condition
        assert isinstance(condition, Exists)
        assert isinstance(condition.body, And)
        assert condition.body.lhs == RegValue(1, "r0", 1)
        assert condition.body.rhs == RegValue(1, "r1", 0)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_litmus("P0(int *x) { }")

    def test_no_threads_rejected(self):
        with pytest.raises(ParseError):
            parse_litmus("C empty\n{ x=0; }\nexists (x=0)")


class TestPrimitives:
    def _first(self, body_line, params="int *x"):
        text = f"C t\n{{ x=0; }}\nP0({params}) {{ {body_line} }}\n"
        return parse_litmus(text).threads[0].body

    def test_acquire_release(self):
        (load,) = self._first("int r0 = smp_load_acquire(x);")
        assert isinstance(load, Load) and load.tag == "acquire"
        (store,) = self._first("smp_store_release(x, 2);")
        assert isinstance(store, Store) and store.tag == "release"
        assert store.value == Const(2)

    def test_rcu_dereference_sets_rb_dep(self):
        (load,) = self._first("int r0 = rcu_dereference(*x);")
        assert isinstance(load, Load) and load.rb_dep

    def test_rcu_assign_pointer(self):
        (store,) = self._first("rcu_assign_pointer(*x, &y);")
        assert store.tag == "release"
        assert store.value == Const(Pointer("y"))

    def test_all_fences(self):
        for call, tag in [
            ("smp_mb", "mb"),
            ("smp_rmb", "rmb"),
            ("smp_wmb", "wmb"),
            ("smp_read_barrier_depends", "rb-dep"),
            ("rcu_read_lock", "rcu-lock"),
            ("rcu_read_unlock", "rcu-unlock"),
            ("synchronize_rcu", "sync-rcu"),
        ]:
            (fence,) = self._first(f"{call}();")
            assert isinstance(fence, Fence) and fence.tag == tag

    def test_xchg_variants(self):
        for call, variant in [
            ("xchg", "xchg"),
            ("xchg_relaxed", "xchg_relaxed"),
            ("xchg_acquire", "xchg_acquire"),
            ("xchg_release", "xchg_release"),
        ]:
            (rmw,) = self._first(f"int r0 = {call}(x, 1);")
            assert isinstance(rmw, Rmw) and rmw.variant == variant

    def test_cmpxchg(self):
        (cmp,) = self._first("int r0 = cmpxchg(x, 0, 1);")
        assert isinstance(cmp, CmpXchg)
        assert cmp.expected == Const(0)
        assert cmp.new_value == Const(1)

    def test_spinlocks(self):
        lock, unlock = self._first("spin_lock(x); spin_unlock(x);")
        assert isinstance(lock, Rmw) and lock.require_read_value == 0
        assert isinstance(unlock, Store) and unlock.tag == "release"

    def test_plain_accesses(self):
        store, load = self._first("*x = 5; int r0 = *x;")
        assert isinstance(store, Store) and store.tag == "plain"
        assert isinstance(load, Load) and load.tag == "plain"

    def test_local_assignment_and_arith(self):
        assign, = self._first("int r0 = 1 + 2;")
        assert isinstance(assign, LocalAssign)
        assert assign.expr == BinOp("+", Const(1), Const(2))

    def test_register_deref(self):
        body = self._first("int r0 = READ_ONCE(*x); int r1 = READ_ONCE(*r0);")
        second = body[1]
        assert second.addr == Reg("r0")


class TestControlFlow:
    def test_if_with_braces(self):
        text = """
C t
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    if (r0) {
        WRITE_ONCE(*y, 1);
    } else {
        WRITE_ONCE(*y, 2);
    }
}
"""
        body = parse_litmus(text).threads[0].body
        branch = body[1]
        assert isinstance(branch, If)
        assert len(branch.then) == 1 and len(branch.orelse) == 1

    def test_if_single_statement(self):
        text = """
C t
{ x=0; y=0; }
P0(int *x, int *y)
{
    int r0 = READ_ONCE(*x);
    if (r0 == 1)
        WRITE_ONCE(*y, 1);
}
"""
        branch = parse_litmus(text).threads[0].body[1]
        assert isinstance(branch, If)
        assert branch.cond == BinOp("==", Reg("r0"), Const(1))


class TestInitSection:
    def test_pointer_init(self):
        text = "C t\n{ p=&x; x=3; }\nP0(int **p) { int r0 = READ_ONCE(*p); }\n"
        program = parse_litmus(text)
        assert program.init["p"] == Pointer("x")
        assert program.init["x"] == 3

    def test_negative_init(self):
        text = "C t\n{ x=-1; }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n"
        assert parse_litmus(text).init["x"] == -1

    def test_typed_init_entries(self):
        text = "C t\n{ int x = 4; int *p = &x; }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n"
        program = parse_litmus(text)
        assert program.init == {"x": 4, "p": Pointer("x")}

    def test_default_zero(self):
        text = "C t\n{ x; }\nP0(int *x) { int r0 = READ_ONCE(*x); }\n"
        assert parse_litmus(text).init["x"] == 0


class TestConditions:
    def _cond(self, text):
        full = f"C t\n{{ x=0; }}\nP0(int *x) {{ int r0 = READ_ONCE(*x); }}\n{text}"
        return parse_litmus(full).condition

    def test_not_exists(self):
        assert isinstance(self._cond("~exists (0:r0=1)"), NotExists)

    def test_forall(self):
        assert isinstance(self._cond("forall (0:r0=0)"), Forall)

    def test_location_clause(self):
        condition = self._cond("exists (x=2)")
        assert condition.body == LocValue("x", 2)

    def test_disjunction(self):
        condition = self._cond("exists (0:r0=0 \\/ 0:r0=1)")
        assert isinstance(condition.body, Or)

    def test_negated_clause(self):
        condition = self._cond("exists (~(0:r0=1))")
        assert isinstance(condition.body, Not)

    def test_pointer_value(self):
        condition = self._cond("exists (0:r0=&x)")
        assert condition.body == RegValue(0, "r0", Pointer("x"))

    def test_parenthesised_conjunction(self):
        condition = self._cond("exists ((0:r0=0 /\\ x=0) \\/ 0:r0=1)")
        assert isinstance(condition.body, Or)


class TestComments:
    def test_c_and_ocaml_comments_ignored(self):
        text = """
C commented
(* an ocaml-style comment *)
{ x=0; }
P0(int *x)
{
    // line comment
    int r0 = READ_ONCE(*x); /* block */
}
exists (0:r0=0)
"""
        program = parse_litmus(text)
        assert program.name == "commented"
        assert len(program.threads[0]) == 1


class TestLibraryRoundTrip:
    def test_every_library_source_parses(self):
        from repro.litmus import library

        for name in library.all_names():
            program = library.get(name)
            assert program.name == name
            assert program.num_threads >= 1
            assert program.condition is not None


    def test_every_source_parses_to_its_key(self):
        """The library is keyed by its header lines without parsing at
        import, so the parse is checked here: each source parses, and
        its name is the key it is filed under."""
        from repro.litmus import library

        assert len(library.SOURCES) == len(library.all_names()) >= 57
        for name, source in library.SOURCES.items():
            assert parse_litmus(source).name == name

    def test_register_refuses_a_duplicate_name(self):
        from repro.litmus import library

        before = dict(library.SOURCES)
        with pytest.raises(ValueError, match="two library tests are named 'MP'"):
            library._register(library.SOURCES["MP"])
        with pytest.raises(ValueError, match="no header line"):
            library._register("{ x=0; }\nP0(int *x) { }\n")
        assert library.SOURCES == before


class TestLibraryLookup:
    def test_unknown_name_suggests_close_matches(self):
        from repro.litmus import library

        with pytest.raises(KeyError) as excinfo:
            library.get("MP+wmb+rnb")
        message = str(excinfo.value)
        assert "did you mean" in message
        assert "MP+wmb+rmb" in message

    def test_unknown_name_without_close_match(self):
        from repro.litmus import library

        with pytest.raises(KeyError) as excinfo:
            library.get("completely-unrelated-name")
        assert "all_names()" in str(excinfo.value)


class TestErrorLocations:
    """ParseError carries path:line:column provenance."""

    def test_located_error_in_thread_body(self):
        text = (
            "C bad\n"          # line 1
            "\n"
            "{ x=0; }\n"       # line 3
            "\n"
            "P0(int *x)\n"     # line 5
            "{\n"              # line 6
            "    WRITE_ONCE(*x 1);\n"  # line 7: missing comma
            "}\n"
        )
        with pytest.raises(ParseError) as excinfo:
            parse_litmus(text, path="bad.litmus")
        error = excinfo.value
        assert error.path == "bad.litmus"
        assert error.line == 7
        assert error.column is not None
        assert str(error).startswith("bad.litmus:7:")

    def test_located_error_points_at_offending_token(self):
        text = "C bad\nP0(int *x)\n{\n    smp_mb(;\n}\n"
        with pytest.raises(ParseError) as excinfo:
            parse_litmus(text)
        assert excinfo.value.line == 4
        # Column points at the ';' where ')' was expected.
        assert excinfo.value.column == text.splitlines()[3].index(";") + 1

    def test_unexpected_character_located(self):
        text = "C bad\n{ x=0; }\nP0(int *x)\n{\n    @bogus;\n}\n"
        with pytest.raises(ParseError) as excinfo:
            parse_litmus(text)
        assert excinfo.value.line == 5

    def test_message_without_location_renders_plain(self):
        error = ParseError("boom")
        assert str(error) == "boom"
        located = ParseError("boom", line=3, column=9, path="t.litmus")
        assert str(located) == "t.litmus:3:9: boom"

    def test_internal_slips_become_parse_errors(self):
        # A lone "P17(...)" thread triggers the thread-id check; whatever
        # malformed input reaches deeper code must still surface as
        # ParseError, never a raw KeyError/IndexError/ValueError.
        with pytest.raises(ParseError):
            parse_litmus("C bad\nP1(int *x)\n{\n}\n")
