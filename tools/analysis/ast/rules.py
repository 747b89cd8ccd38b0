"""Flow-sensitive rules over the astmodel IR.

Each rule is modeled on a bug class this repo actually shipped and fixed:

  deferred-raw-this            PR 1: deferred QuicConnection callbacks
                               captured raw `this` and fired after free;
                               the fix captures a weak live-token.
  iterator-invalidation        PR 2: H2 stream-limit reentrancy — mutation
                               of a container while iterators/references
                               into it are live across statements.
  guarded-field-alias          PR 4 follow-up: a pointer/reference to an
                               LL_GUARDED_BY field used outside the lock
                               scope, which clang -Wthread-safety misses.
  cross-function-narrowing-time-arith
                               PR 4: 64->32-bit time/packet-number
                               truncation — here through call arguments,
                               returns, and later assignments, not just
                               single cast expressions.
  nondeterministic-iteration-escape
                               PR 1-5: unordered-container iteration order
                               flowing into trace/bench/report output.

Rules act only on what the parser recovers; unparsed constructs degrade
to silence. Messages carry the evidence (what was killed where) so a
finding is checkable by reading the two named lines.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set

from ..lexer import Token
from ..rules import _MUTATORS, _at, _is, _matching, _taint, RuleFinding
from .astmodel import (
    Block, FunctionInfo, Stmt, TranslationUnit, is_narrow_int, walk_blocks,
)


class ASTRule(NamedTuple):
    name: str
    applies_to: Callable[[str], bool]
    check: Callable[[TranslationUnit], List[RuleFinding]]
    doc: str


def _everywhere(_rel: str) -> bool:
    return True


def _src_only(rel: str) -> bool:
    return "src/" in rel


# --- shared expression helpers ----------------------------------------------


def _split_args(tokens: Sequence[Token]) -> List[List[Token]]:
    """Top-level comma split with (), [], {} and template <> tracking."""
    parts: List[List[Token]] = [[]]
    depth = 0
    angle = 0
    for i, t in enumerate(tokens):
        if t.kind == "op":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "<" and i > 0 and tokens[i - 1].kind == "id":
                angle += 1
            elif t.text == ">" and angle > 0:
                angle -= 1
            elif t.text == ">>" and angle > 0:
                angle = max(0, angle - 2)
            elif t.text == "," and depth == 0 and angle == 0:
                parts.append([])
                continue
        parts[-1].append(t)
    return [p for p in parts if p]


def _find_calls(tokens: Sequence[Token], names: Set[str]):
    """Yields (name_index, arg_tokens) for calls to any name in `names`.
    Matches bare calls and member calls (x.name(...), x->name(...))."""
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in names:
            continue
        if not _is(_at(tokens, i + 1), "op", "("):
            continue
        close = _matching(tokens, i + 1, "(", ")")
        yield i, list(tokens[i + 2:close])


def _find_lambdas(tokens: Sequence[Token]):
    """Yields (intro_index, capture_tokens, after_close_index) for each
    lambda introducer in the slice. A '[' is a lambda intro when it cannot
    be an index/subscript (prev token is an operator that cannot end an
    expression, or start of slice) and is followed by '(' or '{' after the
    matching ']' (allowing parameter lists and 'mutable')."""
    for i, t in enumerate(tokens):
        if not _is(t, "op", "["):
            continue
        prev = _at(tokens, i - 1)
        if prev is not None and (
            prev.kind in ("id", "num", "str")
            or (prev.kind == "op" and prev.text in (")", "]"))
        ):
            continue  # subscript or array declarator
        close = _matching(tokens, i, "[", "]")
        if close >= len(tokens):
            continue
        nxt = _at(tokens, close + 1)
        if not (_is(nxt, "op", "(") or _is(nxt, "op", "{")
                or _is(nxt, "id", "mutable")):
            continue
        yield i, list(tokens[i + 1:close]), close + 1


_SAFE_CAPTURE_HINT = re.compile(
    r"weak|token|self|alive|live|shared", re.IGNORECASE)


def _raw_this_captures(captures: List[Token],
                       in_method: bool) -> Optional[str]:
    """Returns a description of the raw-`this` capture, or None when the
    capture list is safe. A weak/shared guard anywhere in the list makes
    the whole lambda safe (the PR 1 live-token idiom)."""
    entries = _split_args(captures)
    for entry in entries:
        if any(_SAFE_CAPTURE_HINT.search(t.text) for t in entry
               if t.kind == "id"):
            return None
    for entry in entries:
        texts = [t.text for t in entry]
        if texts == ["this"]:
            return "captures raw `this`"
        if texts == ["&"] and in_method:
            return "default &-capture implicitly captures raw `this`"
        if texts == ["="] and in_method:
            return "default =-capture copies raw `this`"
        if len(texts) == 2 and texts[0] == "&" and entry[1].kind == "id" \
                and texts[1].endswith("_"):
            return f"captures member '{texts[1]}' by reference " \
                   "(aliases raw `this`)"
    return None


# --- rule 1: deferred-raw-this ----------------------------------------------

_DEFER_FNS = frozenset({
    "schedule", "schedule_at", "post", "defer", "call_later", "run_later",
    "run_at", "add_callback", "on_next_tick",
})


def _check_deferred_raw_this(tu: TranslationUnit) -> List[RuleFinding]:
    out: List[RuleFinding] = []
    for fn in tu.functions:
        if fn.body is None:
            continue
        in_method = fn.class_name is not None
        tainted: Dict[str, str] = {}  # local name -> capture description
        for stmt in walk_blocks(fn.body):
            tokens = stmt.head
            if not tokens:
                continue
            # Locals initialized with a raw-this lambda taint their name.
            if stmt.kind == "decl" and stmt.init:
                for _li, caps, _after in _find_lambdas(stmt.init):
                    why = _raw_this_captures(caps, in_method)
                    if why is not None and stmt.decl_name:
                        tainted[stmt.decl_name] = why
            for name_i, args in _find_calls(tokens, _DEFER_FNS):
                reported = False
                for _li, caps, _after in _find_lambdas(args):
                    why = _raw_this_captures(caps, in_method)
                    if why is not None:
                        out.append(RuleFinding(
                            tokens[name_i].line,
                            f"lambda passed to deferred-execution call "
                            f"'{tokens[name_i].text}()' {why}; the event "
                            "queue outlives the object (PR 1 "
                            "use-after-free class) — capture a weak "
                            "live-token and bail out when it is gone"))
                        reported = True
                if reported:
                    continue
                for arg in _split_args(args):
                    ids = [t.text for t in arg if t.kind == "id"]
                    core = [x for x in ids if x not in ("std", "move")]
                    if len(core) == 1 and core[0] in tainted:
                        out.append(RuleFinding(
                            tokens[name_i].line,
                            f"'{core[0]}' (a lambda that "
                            f"{tainted[core[0]]}) escapes into deferred-"
                            f"execution call '{tokens[name_i].text}()' "
                            "(PR 1 use-after-free class) — capture a weak "
                            "live-token instead"))
    return out


# --- rule 2: iterator-invalidation ------------------------------------------

_ITER_SOURCES = frozenset({
    "begin", "end", "rbegin", "rend", "cbegin", "cend",
    "find", "lower_bound", "upper_bound",
})
_REF_SOURCES = frozenset({"back", "front", "at", "top", "data"})
_KILL_FNS = frozenset(_MUTATORS) | {"reserve", "shrink_to_fit"}


class _IterRecord:
    __slots__ = ("name", "container", "kind", "decl_line", "kill_line",
                 "kill_what", "reported")

    def __init__(self, name: str, container: str, kind: str, line: int):
        self.name = name
        self.container = container
        self.kind = kind  # 'iterator' | 'reference'
        self.decl_line = line
        self.kill_line: Optional[int] = None
        self.kill_what: Optional[str] = None
        self.reported = False

    @property
    def valid(self) -> bool:
        return self.kill_line is None


def _copy_rec(rec: "_IterRecord") -> "_IterRecord":
    dup = _IterRecord(rec.name, rec.container, rec.kind, rec.decl_line)
    dup.kill_line = rec.kill_line
    dup.kill_what = rec.kill_what
    dup.reported = rec.reported
    return dup


def _container_sig(tokens: Sequence[Token]) -> Optional[str]:
    """Normalized signature for a container expression; None when the
    expression has no stable object (calls, temporaries)."""
    texts = [t.text for t in tokens]
    while texts[:2] == ["this", "->"]:
        texts = texts[2:]
    if not texts or "(" in texts or ")" in texts:
        return None
    return "".join(texts)


def _iter_source_of(init: Sequence[Token]):
    """`EXPR . fn ( ... )` with fn an iterator/ref source -> (sig, fn)."""
    for i, t in enumerate(init):
        if t.kind != "id" or not _is(_at(init, i + 1), "op", "("):
            continue
        if t.text not in _ITER_SOURCES and t.text not in _REF_SOURCES:
            continue
        dot = _at(init, i - 1)
        if not (_is(dot, "op", ".") or _is(dot, "op", "->")):
            continue
        sig = _container_sig(init[:i - 1])
        if sig is None:
            continue
        kind = "iterator" if t.text in _ITER_SOURCES else "reference"
        return sig, t.text, kind
    # `&EXPR[...]` / plain `EXPR[...]` bound to a reference.
    for i, t in enumerate(init):
        if _is(t, "op", "["):
            start = 1 if init and _is(init[0], "op", "&") else 0
            sig = _container_sig(init[start:i])
            if sig is not None:
                return sig, "operator[]", "reference"
            break
    return None


def _mutations_in(tokens: Sequence[Token], sigs: Set[str]):
    """Yields (sig, fn_name, line) for mutations of tracked containers."""
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text not in _KILL_FNS:
            continue
        if not _is(_at(tokens, i + 1), "op", "("):
            continue
        dot = _at(tokens, i - 1)
        if not (_is(dot, "op", ".") or _is(dot, "op", "->")):
            continue
        # Walk the member chain leftwards to the start of the object expr.
        j = i - 1
        while j - 1 >= 0:
            pt = tokens[j - 1]
            if pt.kind in ("id", "num"):
                j -= 1
                continue
            if pt.kind == "op" and pt.text in (".", "->", "::"):
                j -= 1
                continue
            if pt.kind == "op" and pt.text == "]":
                j = _rfind_open(tokens, j - 1, "[", "]")
                continue
            break
        sig = _container_sig(tokens[j:i - 1])
        if sig is not None and sig in sigs:
            yield sig, t.text, t.line
        _ = n


def _rfind_open(tokens: Sequence[Token], close_idx: int, open_t: str,
                close_t: str) -> int:
    depth = 1
    j = close_idx
    while j >= 0:
        t = tokens[j]
        if t.kind == "op":
            if t.text == close_t:
                depth += 1
            elif t.text == open_t:
                depth -= 1
                if depth == 0:
                    return j
        j -= 1
    return 0


def _uses_of(tokens: Sequence[Token], name: str):
    """Yields token indices where `name` is used as a value (not a member
    access target's member, not qualified)."""
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text != name:
            continue
        prev = _at(tokens, i - 1)
        if _is(prev, "op", ".") or _is(prev, "op", "->") or \
                _is(prev, "op", "::"):
            continue
        yield i


def _check_iterator_invalidation(tu: TranslationUnit) -> List[RuleFinding]:
    out: List[RuleFinding] = []

    def head_uses(stmt: Stmt, rec: _IterRecord) -> bool:
        return any(True for _ in _uses_of(stmt.head, rec.name))

    def process_block(block: Block, records: Dict[str, _IterRecord]):
        for stmt in block.stmts:
            process_stmt(stmt, records)

    def process_stmt(stmt: Stmt, records: Dict[str, _IterRecord]):
        tokens = stmt.head
        # 1. Uses of already-killed iterators (pre-state of this stmt).
        reassigned = None
        if len(tokens) >= 2 and tokens[0].kind == "id" and \
                _is(tokens[1], "op", "="):
            reassigned = tokens[0].text
        if stmt.kind == "decl" and stmt.decl_name in records:
            # A shadowing re-declaration rebinds the name, it is not a use
            # of the dead iterator; step 2 installs the fresh record.
            records.pop(stmt.decl_name)
        for rec in records.values():
            if rec.valid or rec.reported:
                continue
            for ui in _uses_of(tokens, rec.name):
                if reassigned == rec.name and ui == 0:
                    continue  # LHS of a reassignment revalidates below
                out.append(RuleFinding(
                    tokens[ui].line,
                    f"use of {rec.kind} '{rec.name}' into container "
                    f"'{rec.container}' after '{rec.container}."
                    f"{rec.kill_what}()' invalidated it at line "
                    f"{rec.kill_line}"))
                rec.reported = True
                break
        # 2. New iterator/reference declarations (and re-bindings).
        if stmt.kind == "decl" and stmt.init:
            src = _iter_source_of(stmt.init)
            if src is not None and stmt.decl_name:
                sig, _fn, kind = src
                if kind == "reference" and stmt.decl_type and not (
                    "&" in stmt.decl_type or "*" in stmt.decl_type
                ):
                    pass  # by-value copy: immune to invalidation
                else:
                    records[stmt.decl_name] = _IterRecord(
                        stmt.decl_name, sig, kind, stmt.line)
        elif reassigned is not None:
            src = _iter_source_of(tokens[2:])
            if src is not None:
                sig, _fn, kind = src
                records[reassigned] = _IterRecord(
                    reassigned, sig, kind, tokens[0].line)
            elif reassigned in records:
                records.pop(reassigned)  # rebound to something unknown
        # 3. Mutations kill in-range records (`it = c.erase(it)` rebinds
        #    instead via the branch above, so order matters: rebind wins).
        sigs = {r.container for r in records.values() if r.valid}
        if sigs:
            for sig, fname, line in _mutations_in(tokens, sigs):
                for rec in records.values():
                    if rec.valid and rec.container == sig and \
                            rec.name != reassigned:
                        rec.kill_line = line
                        rec.kill_what = fname
        # 4. Range-for: the loop variable is a reference into the range.
        if stmt.kind == "rangefor" and stmt.range_expr and stmt.loop_var:
            sig = _container_sig(stmt.range_expr)
            if sig is not None:
                inner = dict(records)
                inner[stmt.loop_var] = _IterRecord(
                    stmt.loop_var, sig, "reference", stmt.line)
                # Mutating the iterated container anywhere in the body
                # invalidates the hidden range iterators on the back edge.
                before = {n: r.kill_line for n, r in inner.items()}
                for sub in stmt.blocks:
                    process_block(sub, inner)
                for name, rec in inner.items():
                    if rec.container != sig or rec.name != stmt.loop_var:
                        continue
                    if rec.kill_line is not None and \
                            before.get(name) is None and not rec.reported:
                        out.append(RuleFinding(
                            rec.kill_line,
                            f"'{sig}.{rec.kill_what}()' mutates "
                            f"'{sig}' while it is being range-for "
                            "iterated (line "
                            f"{stmt.line}): the loop's hidden iterators "
                            "are invalidated on the next step"))
                        rec.reported = True
                for name, rec in inner.items():
                    if name in records:
                        records[name] = rec
                return
        # 5. Loops: a kill inside the body invalidates head uses on the
        #    back edge (`while (it != c.end()) { c.erase(it); }`).
        if stmt.kind in ("for", "while", "dowhile") and stmt.blocks:
            if stmt.kind == "for" and stmt.for_init is not None:
                process_stmt(stmt.for_init, records)
            inner = dict(records)
            pre_kills = {n: r.kill_line for n, r in inner.items()}
            for sub in stmt.blocks:
                process_block(sub, inner)
            for name, rec in inner.items():
                if rec.valid or rec.reported:
                    continue
                if pre_kills.get(name) is not None:
                    continue  # killed before the loop, already reportable
                if head_uses(stmt, rec):
                    out.append(RuleFinding(
                        rec.kill_line,
                        f"loop at line {stmt.line} re-tests {rec.kind} "
                        f"'{rec.name}' after '{rec.container}."
                        f"{rec.kill_what}()' invalidated it (rebind with "
                        f"'{rec.name} = {rec.container}."
                        f"{rec.kill_what}(...)' or break)"))
                    rec.reported = True
            records.update(inner)
            return
        # 6. if/else (and switch arms): the branches are mutually
        #    exclusive, so each runs on its own copy of the pre-state; a
        #    kill in either branch then propagates to the post-state.
        if stmt.kind in ("if", "switch") and len(stmt.blocks) >= 1:
            branch_states = []
            for sub in stmt.blocks:
                branch = {n: _copy_rec(r) for n, r in records.items()}
                process_block(sub, branch)
                branch_states.append(branch)
            for name, rec in records.items():
                for branch in branch_states:
                    b = branch.get(name)
                    if b is None:
                        continue
                    if rec.valid and not b.valid:
                        rec.kill_line = b.kill_line
                        rec.kill_what = b.kill_what
                    rec.reported = rec.reported or b.reported
            return
        # 7. Other nested blocks: same linear state.
        for sub in stmt.blocks:
            process_block(sub, records)

    for fn in tu.functions:
        if fn.body is None:
            continue
        process_block(fn.body, {})
    return out


# --- rule 3: guarded-field-alias --------------------------------------------

_LOCK_TYPES = frozenset({
    "MutexLock", "util::MutexLock", "std::lock_guard", "std::unique_lock",
    "std::scoped_lock", "std::shared_lock", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock",
})


def _base_type(type_text: str) -> str:
    return type_text.split("<")[0].replace("const", "").strip()


def _check_guarded_field_alias(tu: TranslationUnit) -> List[RuleFinding]:
    out: List[RuleFinding] = []

    for fn in tu.functions:
        if fn.body is None or fn.class_name is None:
            continue
        cls = tu.symbols.classes.get(fn.class_name)
        if cls is None:
            continue
        guarded = {name: f for name, f in cls.fields.items()
                   if f.guarded_by is not None}
        if not guarded:
            continue
        ret_is_ref = "&" in fn.return_type or "*" in fn.return_type

        # aliases: name -> (field, lock_id or None); expired aliases move
        # their lock_id into `expired`.
        aliases: Dict[str, tuple] = {}
        reported: Set[str] = set()

        def field_in(tokens: Sequence[Token]) -> Optional[str]:
            for i, t in enumerate(tokens):
                if t.kind == "id" and t.text in guarded:
                    prev = _at(tokens, i - 1)
                    if _is(prev, "op", ".") or _is(prev, "op", "::"):
                        continue  # other.field / Class::field
                    return t.text
            return None

        def addr_of_field_in(tokens: Sequence[Token]) -> Optional[str]:
            """Field whose address is taken (`&field` / `&this->field`)."""
            for i, t in enumerate(tokens):
                if t.kind != "id" or t.text not in guarded:
                    continue
                prev = _at(tokens, i - 1)
                if _is(prev, "op", "&"):
                    return t.text
                if _is(prev, "op", "->") and \
                        _is(_at(tokens, i - 2), "id", "this") and \
                        _is(_at(tokens, i - 3), "op", "&"):
                    return t.text
            return None

        def walk(block: Block, active_locks: List[int]):
            # Lock objects declared in this block die when it ends.
            own_locks: List[int] = []
            for stmt in block.stmts:
                tokens = stmt.head
                if stmt.kind == "decl" and stmt.decl_type and \
                        _base_type(stmt.decl_type) in _LOCK_TYPES:
                    lock_id = id(stmt)
                    own_locks.append(lock_id)
                    active_locks.append(lock_id)
                    continue
                # Alias creation: reference/pointer decl over a guarded
                # field.
                if stmt.kind == "decl" and stmt.init and stmt.decl_type \
                        and ("&" in stmt.decl_type or "*" in stmt.decl_type):
                    fname = field_in(stmt.init)
                    if fname is not None and stmt.decl_name:
                        if not active_locks:
                            out.append(RuleFinding(
                                stmt.line,
                                f"alias of '{fname}' (LL_GUARDED_BY("
                                f"{guarded[fname].guarded_by})) taken "
                                "without holding its mutex"))
                            reported.add(stmt.decl_name)
                        else:
                            aliases[stmt.decl_name] = (
                                fname, active_locks[-1], stmt.line)
                        continue
                # Alias creation by assignment: `p = &field;`.
                if stmt.kind == "expr" and len(tokens) >= 3 and \
                        tokens[0].kind == "id" and _is(tokens[1], "op", "="):
                    fname = addr_of_field_in(tokens[2:])
                    if fname is not None:
                        if not active_locks:
                            out.append(RuleFinding(
                                stmt.line,
                                f"address of '{fname}' (LL_GUARDED_BY("
                                f"{guarded[fname].guarded_by})) taken "
                                "without holding its mutex"))
                            reported.add(tokens[0].text)
                        else:
                            aliases[tokens[0].text] = (
                                fname, active_locks[-1], stmt.line)
                        continue
                # Return escape: a ref/ptr-returning method handing out a
                # guarded field (directly or via a live alias).
                if stmt.kind == "return" and tokens:
                    fname = field_in(tokens)
                    if fname is not None and ret_is_ref:
                        out.append(RuleFinding(
                            stmt.line,
                            f"'{fn.qualname}' returns a reference/pointer "
                            f"to '{fname}' (LL_GUARDED_BY("
                            f"{guarded[fname].guarded_by})): the caller "
                            "holds it after the lock is released"))
                        continue
                    for name, (afield, _lk, _dl) in aliases.items():
                        if name in reported:
                            continue
                        if ret_is_ref and any(True for _ in _uses_of(tokens, name)):
                            out.append(RuleFinding(
                                stmt.line,
                                f"'{fn.qualname}' returns alias '{name}' "
                                f"of guarded field '{afield}': it escapes "
                                "the lock scope"))
                            reported.add(name)
                # Use of an alias whose lock scope has ended.
                for name, (afield, lock_id, decl_line) in list(
                        aliases.items()):
                    if name in reported or lock_id in active_locks:
                        continue
                    if any(True for _ in _uses_of(tokens, name)):
                        out.append(RuleFinding(
                            tokens[0].line if tokens else stmt.line,
                            f"alias '{name}' of '{afield}' (LL_GUARDED_BY("
                            f"{guarded[afield].guarded_by}), taken at line "
                            f"{decl_line}) used outside the MutexLock "
                            "scope that protected it"))
                        reported.add(name)
                for sub in stmt.blocks:
                    walk(sub, active_locks)
            for lock_id in own_locks:
                active_locks.remove(lock_id)

        # LL_REQUIRES on the definition or any matching declaration means
        # the caller already holds the mutex for the whole body: seed a
        # sentinel lock that never goes out of scope.
        required = list(fn.requires_lock)
        for sig in tu.symbols.functions.get(fn.name, []):
            if sig.class_name == fn.class_name:
                required.extend(sig.requires_lock)
        walk(fn.body, [-1] if required else [])
    return out


# --- rule 4: cross-function narrowing ---------------------------------------


def _resolved_narrow_params(tu: TranslationUnit, name: str):
    """Param-index -> type for params every known signature agrees are
    narrow. None when the name is unknown."""
    fns = tu.symbols.functions.get(name)
    if not fns:
        return None
    narrow: Dict[int, str] = {}
    for idx in range(max(len(f.params) for f in fns)):
        types = {f.params[idx].type_text for f in fns
                 if idx < len(f.params)}
        if types and all(is_narrow_int(t) for t in types):
            narrow[idx] = sorted(types)[0]
    return narrow


def _check_cross_function_narrowing(tu: TranslationUnit) -> List[RuleFinding]:
    out: List[RuleFinding] = []
    for fn in tu.functions:
        if fn.body is None:
            continue
        narrow_locals: Dict[str, str] = {
            p.name: p.type_text for p in fn.params
            if p.name and is_narrow_int(p.type_text)}
        cls = tu.symbols.classes.get(fn.class_name) \
            if fn.class_name else None
        narrow_fields = {
            f.name: f.type_text for f in (cls.fields.values() if cls else [])
            if is_narrow_int(f.type_text)}
        ret_narrow = is_narrow_int(fn.return_type)

        for stmt in walk_blocks(fn.body):
            tokens = stmt.head
            if not tokens:
                continue
            texts = [t.text for t in tokens]
            has_cast = "static_cast" in texts  # already the token rule's job
            if stmt.kind == "decl" and stmt.decl_type and stmt.decl_name:
                if is_narrow_int(stmt.decl_type):
                    narrow_locals[stmt.decl_name] = stmt.decl_type
                # Narrow decl-inits are the token layer's job; skip here.
            # (a) tainted arguments into narrow parameters.
            seen_lines: Set[int] = set()
            for i, t in enumerate(tokens):
                if t.kind != "id" or not _is(_at(tokens, i + 1), "op", "("):
                    continue
                narrow_params = _resolved_narrow_params(tu, t.text)
                if not narrow_params:
                    continue
                close = _matching(tokens, i + 1, "(", ")")
                args = _split_args(tokens[i + 2:close])
                for idx, ptype in narrow_params.items():
                    if idx >= len(args):
                        continue
                    arg_texts = [x.text for x in args[idx]]
                    if "static_cast" in arg_texts:
                        continue
                    time_t, pn_t = _taint(args[idx])
                    if (time_t or pn_t) and t.line not in seen_lines:
                        what = "time value" if time_t else "packet number"
                        out.append(RuleFinding(
                            t.line,
                            f"{what} narrowed through call: argument "
                            f"{idx + 1} of '{t.text}()' has {ptype} "
                            "parameter (widen the parameter or make the "
                            "truncation an explicit checked cast)"))
                        seen_lines.add(t.line)
            # (b) tainted returns out of a narrow-returning function.
            if stmt.kind == "return" and ret_narrow and not has_cast:
                time_t, pn_t = _taint(tokens)
                if time_t or pn_t:
                    what = "time value" if time_t else "packet number"
                    out.append(RuleFinding(
                        stmt.line,
                        f"{what} narrowed through return: '{fn.qualname}' "
                        f"returns {fn.return_type} (widen the return type "
                        "or make the truncation explicit)"))
            # (c) tainted assignments into earlier-declared narrow slots.
            if stmt.kind == "expr" and len(tokens) >= 3 and \
                    tokens[0].kind == "id" and tokens[1].kind == "op" and \
                    tokens[1].text in ("=", "+=", "-=", "*=") and \
                    not has_cast:
                target = tokens[0].text
                ttype = narrow_locals.get(target) or \
                    narrow_fields.get(target)
                if ttype is not None:
                    time_t, pn_t = _taint(tokens[2:])
                    if time_t or pn_t:
                        what = "time value" if time_t else "packet number"
                        out.append(RuleFinding(
                            stmt.line,
                            f"{what} narrowed through assignment: "
                            f"'{target}' was declared {ttype} (widen the "
                            "declaration — the token rule only sees "
                            "decl-inits, this flowed in later)"))
    return out


# --- rule 5: nondeterministic-iteration-escape ------------------------------

_ORDER_SINK_FNS = frozenset({
    "push_back", "emplace_back", "append", "emit", "write", "print",
    "printf", "fprintf", "log", "record", "add_row", "row", "push",
})


def _order_sensitive_stmt(tokens: Sequence[Token],
                          string_names: Set[str]) -> Optional[str]:
    for i, t in enumerate(tokens):
        if t.kind == "op" and t.text == "<<":
            prev = _at(tokens, i - 1)
            if prev is not None and (prev.kind in ("id", "str")
                                     or _is(prev, "op", ")")):
                return "streams into ordered output via '<<'"
        if t.kind == "id" and t.text in _ORDER_SINK_FNS and \
                _is(_at(tokens, i + 1), "op", "("):
            return f"appends via '{t.text}()' (sequence order = " \
                   "iteration order)"
        if t.kind == "op" and t.text == "+=" and i > 0 and \
                tokens[i - 1].kind == "id" and \
                tokens[i - 1].text in string_names:
            return f"concatenates onto string '{tokens[i - 1].text}'"
    return None


def _check_nondet_iteration_escape(tu: TranslationUnit) -> List[RuleFinding]:
    out: List[RuleFinding] = []
    unordered = set(tu.symbols.unordered_names)

    for fn in tu.functions:
        if fn.body is None:
            continue
        string_names: Set[str] = set()
        local_unordered = set(unordered)
        for p in fn.params:
            if p.name and "unordered_" in p.type_text:
                local_unordered.add(p.name)
            if p.name and "string" in p.type_text:
                string_names.add(p.name)
        for stmt in walk_blocks(fn.body):
            if stmt.kind == "decl" and stmt.decl_type and stmt.decl_name:
                base = stmt.decl_type
                if "unordered_" in base:
                    local_unordered.add(stmt.decl_name)
                if "string" in base:
                    string_names.add(stmt.decl_name)
        cls = tu.symbols.classes.get(fn.class_name) if fn.class_name else None
        for f in (cls.fields.values() if cls else []):
            if "string" in f.type_text:
                string_names.add(f.name)

        for stmt in walk_blocks(fn.body):
            if stmt.kind != "rangefor" or not stmt.range_expr:
                continue
            range_ids = [t.text for t in stmt.range_expr if t.kind == "id"]
            is_unordered = any(x in local_unordered for x in range_ids) or \
                any("unordered" in x for x in range_ids)
            if not is_unordered:
                continue
            for body in stmt.blocks:
                for inner in walk_blocks(body):
                    if inner.kind not in ("expr", "decl", "return"):
                        continue
                    why = _order_sensitive_stmt(inner.head, string_names)
                    if why is not None:
                        out.append(RuleFinding(
                            inner.line,
                            f"unordered-container iteration order escapes: "
                            f"loop at line {stmt.line} {why} — iterate a "
                            "sorted snapshot (or sort before emitting)"))
    return out


# --- registry ----------------------------------------------------------------

AST_RULES = [
    ASTRule("deferred-raw-this", _src_only, _check_deferred_raw_this,
            "Lambda capturing raw `this`/`&`/`=`/&member_ escapes into a "
            "deferred-execution call (schedule/post/defer); capture a weak "
            "live-token instead (PR 1 use-after-free class)."),
    ASTRule("iterator-invalidation", _everywhere,
            _check_iterator_invalidation,
            "Iterator/reference into a container used after a mutating "
            "call invalidated it — tracked across statements, loops, and "
            "range-for back edges (PR 2 bug class)."),
    ASTRule("guarded-field-alias", _everywhere, _check_guarded_field_alias,
            "Pointer/reference to an LL_GUARDED_BY field taken without "
            "the lock, used after the MutexLock scope ends, or returned "
            "from a ref/ptr method (-Wthread-safety misses aliases)."),
    ASTRule("cross-function-narrowing-time-arith", _everywhere,
            _check_cross_function_narrowing,
            "64->32-bit time/packet-number truncation through call "
            "arguments, returns, and later assignments (the token rule "
            "only sees single expressions)."),
    ASTRule("nondeterministic-iteration-escape", _everywhere,
            _check_nondet_iteration_escape,
            "Unordered-container iteration whose order flows into "
            "trace/bench/report output (push_back, '<<', string +=)."),
]

AST_RULE_NAMES = tuple(r.name for r in AST_RULES)
AST_RULES_BY_NAME = {r.name: r for r in AST_RULES}
