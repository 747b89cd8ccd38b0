"""Parser: token stream -> astmodel translation unit.

A structural C++ parser built on tools/analysis/lexer.py. It does not try
to be a compiler: types are token text, expressions stay token slices, and
anything it cannot classify becomes an opaque 'expr' statement — rules
degrade to silence on unparsed constructs, never to crashes or false
positives. What it does recover, reliably enough for the five flow rules:

  * function definitions (free, qualified out-of-line, inline methods,
    ctor-init lists, trailing return types) with nested statement trees;
  * statement kinds and ordering inside bodies, including loop heads
    (classic + range-for), if/else chains, and brace scopes;
  * local declarations (type text, name, initializer token slice);
  * class bodies: fields with LL_GUARDED_BY annotations, mutex members;
  * member function *declarations* (for the cross-function signature
    table) in addition to definitions.

The loader pairs `foo.cc` with a sibling `foo.h` so method bodies in the
.cc see the class's field table — the single-file idiom this repo uses
everywhere.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from ..lexer import Token, tokenize
from ..rules import (
    _at, _class_bodies, _close_angle, _is, _is_mutex_statement, _matching,
    _member_statements, _unordered_decls,
)
from .astmodel import (
    Block, ClassInfo, FieldInfo, FunctionInfo, Param, Stmt, SymbolTable,
    TranslationUnit,
)

_CONTROL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "do", "else", "case", "default", "new", "delete", "throw", "goto",
    "static_assert", "decltype", "alignas", "noexcept", "operator",
})

_DECL_QUALIFIERS = frozenset({
    "const", "static", "constexpr", "thread_local", "mutable", "inline",
    "volatile", "register", "extern", "typename",
})

_FN_TAIL_QUALIFIERS = frozenset({
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "throw", "LL_REQUIRES", "LL_EXCLUDES", "LL_NO_THREAD_SAFETY_ANALYSIS",
})


def split_commas(tokens: List[Token]) -> List[List[Token]]:
    """Splits at top-level commas, tracking (), [], {} and template <>."""
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


# --- declaration parsing -----------------------------------------------------


def _parse_type(tokens: List[Token], i: int) -> Optional[Tuple[str, int]]:
    """Parses a type-id at i: qualifiers, id chains with ::, template args,
    and */&/&& suffixes. Returns (joined_text, next_index) or None."""
    parts: List[str] = []
    n = len(tokens)
    while i < n and _is(tokens[i], "id") and tokens[i].text in _DECL_QUALIFIERS:
        parts.append(tokens[i].text)
        i += 1
    t = _at(tokens, i)
    if not _is(t, "id") or t.text in _CONTROL_KEYWORDS:
        return None
    if t.text in ("unsigned", "signed"):
        parts.append(t.text)
        i += 1
        while _is(_at(tokens, i), "id") and tokens[i].text in (
            "char", "short", "int", "long"
        ):
            parts.append(tokens[i].text)
            i += 1
    else:
        # id (:: id)* with optional one template-argument list per segment.
        parts.append(t.text)
        i += 1
        while True:
            if _is(_at(tokens, i), "op", "<"):
                close = _close_angle(tokens, i)
                if close >= len(tokens) or not _is(tokens[close], "op") or \
                        tokens[close].text not in (">", ">>"):
                    return None
                parts.append("<" + "".join(
                    x.text for x in tokens[i + 1:close]) + ">")
                i = close + 1
            if _is(_at(tokens, i), "op", "::") and _is(
                _at(tokens, i + 1), "id"
            ):
                parts.append("::" + tokens[i + 1].text)
                i += 2
                continue
            break
        # `long long` / `long int` style multi-word builtins.
        while parts[-1] in ("long",) and _is(_at(tokens, i), "id") and \
                tokens[i].text in ("long", "int", "double"):
            parts.append(tokens[i].text)
            i += 1
    while _is(_at(tokens, i), "id", "const"):
        parts.append("const")
        i += 1
    while _is(_at(tokens, i), "op") and tokens[i].text in ("*", "&", "&&"):
        parts.append(tokens[i].text)
        i += 1
        while _is(_at(tokens, i), "id", "const"):
            parts.append("const")
            i += 1
    out: List[str] = []
    for p in parts:
        if out and (p.startswith("::") or p.startswith("<") or
                    p in ("*", "&", "&&")):
            out[-1] = out[-1] + p
        else:
            out.append(p)
    return " ".join(out), i


def try_parse_decl(stmt: List[Token]):
    """If `stmt` looks like `Type name [= init | (init) | {init}] ;`
    returns (type_text, name, init_tokens or None); else None."""
    parsed = _parse_type(stmt, 0)
    if parsed is None:
        return None
    type_text, i = parsed
    name_t = _at(stmt, i)
    if not _is(name_t, "id") or name_t.text in _CONTROL_KEYWORDS or \
            name_t.text in _DECL_QUALIFIERS:
        return None
    name = name_t.text
    i += 1
    nxt = _at(stmt, i)
    if nxt is None or _is(nxt, "op", ";"):
        return type_text, name, None
    if _is(nxt, "op", "="):
        init = list(stmt[i + 1:])
        while init and _is(init[-1], "op", ";"):
            init.pop()
        return type_text, name, init
    if _is(nxt, "op", "(") or _is(nxt, "op", "{"):
        open_t, close_t = (nxt.text, ")" if nxt.text == "(" else "}")
        close = _matching(stmt, i, open_t, close_t)
        # `Type name(args);` could still be a function declaration; treat
        # parens holding only type-ish tokens followed by end as ambiguous
        # and keep it — rules only consume decls with initializers for
        # dataflow, so the cost of misclassifying is nil.
        return type_text, name, list(stmt[i + 1:close])
    if _is(nxt, "op", ",") or _is(nxt, "op", "["):
        return type_text, name, None
    return None


# --- statement tree ----------------------------------------------------------


def _parse_stmt_span(tokens: List[Token], i: int, end: int):
    """Collects one generic statement starting at i (strictly before end).
    Returns (stmt_tokens, next_index). Braces inside parens (lambdas,
    braced calls) and braced initializers are consumed into the statement;
    the terminating ';' is included when present."""
    out: List[Token] = []
    depth = 0
    while i < end:
        t = tokens[i]
        if t.kind == "op":
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth -= 1
            elif t.text == "{":
                close = _matching(tokens, i, "{", "}")
                out.extend(tokens[i:min(close + 1, end)])
                i = close + 1
                if depth <= 0:
                    # Braced init at statement level: `Foo x{1};` — a
                    # following ';' ends the statement; anything else means
                    # the brace was a body we should not have swallowed
                    # (handled by callers before we get here).
                    if _is(_at(tokens, i), "op", ";") and i < end:
                        out.append(tokens[i])
                        i += 1
                        return out, i
                    return out, i
                continue
            elif t.text == ";" and depth <= 0:
                out.append(t)
                return out, i + 1
        out.append(t)
        i += 1
    return out, i


def _classify_simple(stmt_tokens: List[Token]) -> Stmt:
    if not stmt_tokens:
        return Stmt("empty", 0)
    line = stmt_tokens[0].line
    parsed = try_parse_decl(stmt_tokens)
    if parsed is not None:
        type_text, name, init = parsed
        return Stmt("decl", line, head=stmt_tokens, decl_type=type_text,
                    decl_name=name, init=init)
    return Stmt("expr", line, head=stmt_tokens)


def parse_block(tokens: List[Token], open_idx: int) -> Tuple[Block, int]:
    """tokens[open_idx] == '{'; returns (Block, index_after_close)."""
    close = _matching(tokens, open_idx, "{", "}")
    block = Block()
    i = open_idx + 1
    while i < close:
        stmt, i = _parse_one_stmt(tokens, i, close)
        if stmt is not None:
            block.stmts.append(stmt)
    return block, close + 1


def _parse_body_or_stmt(tokens: List[Token], i: int,
                        end: int) -> Tuple[Block, int]:
    """Parses a control-statement body: a brace block or one statement."""
    if _is(_at(tokens, i), "op", "{"):
        blk, i = parse_block(tokens, i)
        return blk, i
    blk = Block()
    stmt, i = _parse_one_stmt(tokens, i, end)
    if stmt is not None:
        blk.stmts.append(stmt)
    return blk, i


def _parse_one_stmt(tokens: List[Token], i: int, end: int):
    """Parses one statement at i; returns (Stmt or None, next_index)."""
    t = _at(tokens, i)
    if t is None or i >= end:
        return None, end
    if _is(t, "op", ";"):
        return None, i + 1
    if _is(t, "op", "{"):
        blk, i = parse_block(tokens, i)
        return Stmt("block", t.line, blocks=[blk]), i
    if t.kind == "id":
        kw = t.text
        if kw in ("if", "while", "switch") and _is(
            _at(tokens, i + 1), "op", "("
        ):
            close = _matching(tokens, i + 1, "(", ")")
            head = list(tokens[i + 2:close])
            body, j = _parse_body_or_stmt(tokens, close + 1, end)
            blocks = [body]
            if kw == "if" and _is(_at(tokens, j), "id", "else"):
                else_body, j = _parse_body_or_stmt(tokens, j + 1, end)
                blocks.append(else_body)
            kind = "if" if kw == "if" else ("while" if kw == "while"
                                            else "switch")
            return Stmt(kind, t.line, head=head, blocks=blocks), j
        if kw == "do":
            body, j = _parse_body_or_stmt(tokens, i + 1, end)
            head: List[Token] = []
            if _is(_at(tokens, j), "id", "while") and _is(
                _at(tokens, j + 1), "op", "("
            ):
                close = _matching(tokens, j + 1, "(", ")")
                head = list(tokens[j + 2:close])
                j = close + 1
                if _is(_at(tokens, j), "op", ";"):
                    j += 1
            return Stmt("dowhile", t.line, head=head, blocks=[body]), j
        if kw == "for" and _is(_at(tokens, i + 1), "op", "("):
            close = _matching(tokens, i + 1, "(", ")")
            inner = list(tokens[i + 2:close])
            colon = None
            depth = 0
            for k, tk in enumerate(inner):
                if tk.kind == "op":
                    if tk.text in "([{":
                        depth += 1
                    elif tk.text in ")]}":
                        depth -= 1
                    elif tk.text == ";" and depth == 0:
                        colon = None
                        break
                    elif tk.text == ":" and depth == 0 and colon is None:
                        prev = inner[k - 1] if k else None
                        if not (prev is not None and prev.kind == "op"
                                and prev.text == ":"):
                            colon = k
                            break
            body, j = _parse_body_or_stmt(tokens, close + 1, end)
            if colon is not None:
                var_tokens = inner[:colon]
                range_expr = inner[colon + 1:]
                var_type = None
                var_name = None
                ids = [x for x in var_tokens if x.kind == "id"]
                if ids:
                    var_name = ids[-1].text
                    var_type = "".join(
                        x.text for x in var_tokens
                        if not (x.kind == "id" and x is ids[-1]))
                return Stmt("rangefor", t.line, head=inner, blocks=[body],
                            loop_var_type=var_type, loop_var=var_name,
                            range_expr=range_expr), j
            # Classic for: parse the init clause as a statement.
            semi = None
            depth = 0
            for k, tk in enumerate(inner):
                if tk.kind == "op":
                    if tk.text in "([{":
                        depth += 1
                    elif tk.text in ")]}":
                        depth -= 1
                    elif tk.text == ";" and depth == 0:
                        semi = k
                        break
            for_init = None
            if semi is not None and semi > 0:
                for_init = _classify_simple(inner[:semi])
            return Stmt("for", t.line, head=inner, blocks=[body],
                        for_init=for_init), j
        if kw == "return":
            stmt_tokens, j = _parse_stmt_span(tokens, i, end)
            return Stmt("return", t.line, head=stmt_tokens[1:]), j
        if kw in ("break", "continue"):
            stmt_tokens, j = _parse_stmt_span(tokens, i, end)
            return Stmt(kw, t.line), j
        if kw in ("case", "default"):
            j = i
            while j < end and not _is(tokens[j], "op", ":"):
                j += 1
            return None, j + 1
        if kw == "else":
            # Dangling else from a single-statement if we mis-parsed;
            # swallow its body to keep walking.
            body, j = _parse_body_or_stmt(tokens, i + 1, end)
            return Stmt("block", t.line, blocks=[body]), j
        if kw == "try":
            body, j = _parse_body_or_stmt(tokens, i + 1, end)
            blocks = [body]
            while _is(_at(tokens, j), "id", "catch") and _is(
                _at(tokens, j + 1), "op", "("
            ):
                cclose = _matching(tokens, j + 1, "(", ")")
                cbody, j = _parse_body_or_stmt(tokens, cclose + 1, end)
                blocks.append(cbody)
            return Stmt("try", t.line, blocks=blocks), j
        if kw in ("using", "typedef", "static_assert", "goto"):
            stmt_tokens, j = _parse_stmt_span(tokens, i, end)
            return Stmt("expr", t.line, head=stmt_tokens), j
        if kw in ("class", "struct", "enum", "union"):
            j = i
            while j < end:
                tj = tokens[j]
                if _is(tj, "op", ";"):
                    return None, j + 1
                if _is(tj, "op", "{"):
                    bclose = _matching(tokens, j, "{", "}")
                    j = bclose + 1
                    # Local type definition; a declarator may follow.
                    stmt_tokens, j2 = _parse_stmt_span(tokens, j, end)
                    return None, j2
                j += 1
            return None, end
        # Label `name:` (not `::`).
        if _is(_at(tokens, i + 1), "op", ":") and not _is(
            _at(tokens, i + 1), "op", "::"
        ) and t.text not in ("public", "private", "protected"):
            nxt2 = _at(tokens, i + 2)
            if nxt2 is not None and not _is(nxt2, "op", ":"):
                # Heuristic: treat as label only for the gtest-free common
                # case of an id directly followed by ':' and a statement
                # keyword; otherwise fall through to a generic statement.
                pass
    stmt_tokens, j = _parse_stmt_span(tokens, i, end)
    return _classify_simple(stmt_tokens), j


# --- function discovery ------------------------------------------------------


def _stmt_boundary_before(tokens: List[Token], i: int) -> int:
    """Index of the first token of the declaration that ends at/after i."""
    j = i - 1
    while j >= 0:
        t = tokens[j]
        if t.kind == "op" and t.text in (";", "{", "}"):
            return j + 1
        if t.kind == "op" and t.text == ":" and j > 0 and \
                tokens[j - 1].kind == "id" and tokens[j - 1].text in (
                    "public", "private", "protected"):
            return j + 1
        j -= 1
    return 0


def _skip_fn_tail(tokens: List[Token], i: int):
    """After a parameter-list ')', skips cv/ref/noexcept/attributes and a
    trailing return type. Returns (body_open_index or None, trailing_type).
    body_open_index is the '{' of a definition; None when the declaration
    ends in ';' (or anything unparseable)."""
    trailing = ""
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if _is(t, "id") and t.text in _FN_TAIL_QUALIFIERS:
            if _is(_at(tokens, i + 1), "op", "("):
                i = _matching(tokens, i + 1, "(", ")") + 1
            else:
                i += 1
            continue
        if _is(t, "op", "&") or _is(t, "op", "&&"):
            i += 1
            continue
        if _is(t, "op", "->"):
            parsed = _parse_type(tokens, i + 1)
            if parsed is None:
                return None, trailing
            trailing, i = parsed
            continue
        if _is(t, "op", "{"):
            return i, trailing
        if _is(t, "op", ";"):
            return None, trailing
        if _is(t, "op", ":"):
            # Constructor initializer list: id ( ... ) | id { ... } [, ...]
            j = i + 1
            while j < n:
                if not _is(_at(tokens, j), "id"):
                    return None, trailing
                j += 1
                while _is(_at(tokens, j), "op", "::") or _is(
                    _at(tokens, j), "id"
                ):
                    j += 1
                if _is(_at(tokens, j), "op", "<"):
                    j = _close_angle(tokens, j) + 1
                if _is(_at(tokens, j), "op", "("):
                    j = _matching(tokens, j, "(", ")") + 1
                elif _is(_at(tokens, j), "op", "{"):
                    j = _matching(tokens, j, "{", "}") + 1
                else:
                    return None, trailing
                if _is(_at(tokens, j), "op", ","):
                    j += 1
                    continue
                if _is(_at(tokens, j), "op", "{"):
                    return j, trailing
                return None, trailing
            return None, trailing
        return None, trailing
    return None, trailing


def _parse_params(tokens: List[Token]) -> List[Param]:
    params: List[Param] = []
    for part in split_commas(tokens):
        texts = [t.text for t in part]
        if texts in (["void"], ["..."]):
            continue
        # Drop default arguments.
        eq = None
        depth = 0
        for k, t in enumerate(part):
            if t.kind == "op":
                if t.text in "([{":
                    depth += 1
                elif t.text in ")]}":
                    depth -= 1
                elif t.text == "=" and depth == 0:
                    eq = k
                    break
        core = part[:eq] if eq is not None else part
        ids = [t for t in core if t.kind == "id"
               and t.text not in _DECL_QUALIFIERS]
        if not ids:
            continue
        name = ids[-1].text if len(ids) >= 2 else ""
        type_tokens = core if len(ids) < 2 else core[:-1]
        while type_tokens and type_tokens[-1].kind == "id" and \
                type_tokens[-1].text == name and len(ids) >= 2:
            type_tokens = type_tokens[:-1]
        type_text = " ".join(t.text for t in type_tokens)
        params.append(Param(type_text=type_text, name=name))
    return params


def find_functions(tokens: List[Token],
                   class_spans: List[Tuple[str, int, int]]):
    """Yields FunctionInfo for every function *definition* in the token
    stream. class_spans: (name, body_start, body_end) from _class_bodies,
    used to attribute inline methods to their class."""
    n = len(tokens)
    i = 0
    out: List[FunctionInfo] = []
    while i < n:
        t = tokens[i]
        if not _is(t, "op", "("):
            i += 1
            continue
        name_t = _at(tokens, i - 1)
        if not _is(name_t, "id") or name_t.text in _CONTROL_KEYWORDS or \
                name_t.text in _DECL_QUALIFIERS:
            i += 1
            continue
        prev = _at(tokens, i - 2)
        if _is(prev, "op", ".") or _is(prev, "op", "->"):
            i += 1
            continue  # method call, not a definition
        close = _matching(tokens, i, "(", ")")
        if close >= n:
            i += 1
            continue
        body_open, _trailing = _skip_fn_tail(tokens, close + 1)
        # Qualified name components before the name: A::B::name.
        qual_parts = [name_t.text]
        j = i - 2
        while _is(_at(tokens, j), "op", "::") and _is(
            _at(tokens, j - 1), "id"
        ):
            qual_parts.insert(0, tokens[j - 1].text)
            j -= 2
        start = _stmt_boundary_before(tokens, j + 1)
        ret_tokens = [x for x in tokens[start:j + 1]
                      if not (x.kind == "id" and x.text in (
                          "static", "inline", "constexpr", "virtual",
                          "explicit", "friend", "extern", "LL_REQUIRES"))]
        # Skip template headers and macro-ish all-caps attribute tokens.
        if ret_tokens and _is(ret_tokens[0], "id", "template"):
            i = close + 1
            continue
        return_type = " ".join(x.text for x in ret_tokens)
        if body_open is None:
            # File-scope prototype (`uint32_t f(int64_t t);`): record the
            # signature (body=None) so call-site rules can resolve it. A
            # call expression never qualifies — its boundary leaves no
            # return-type tokens, or leaves an '=' / control keyword.
            macroish = name_t.text.isupper() and "_" in name_t.text
            if _is(_at(tokens, close + 1), "op", ";") and ret_tokens and \
                    not macroish and \
                    not any(x.kind == "op" and x.text == "=" or
                            (x.kind == "id" and x.text in _CONTROL_KEYWORDS)
                            for x in ret_tokens):
                out.append(FunctionInfo(
                    name=name_t.text,
                    qualname="::".join(qual_parts),
                    class_name=qual_parts[-2] if len(qual_parts) >= 2
                    else None,
                    return_type=return_type,
                    params=_parse_params(tokens[i + 1:close]),
                    line=name_t.line,
                    body=None,
                ))
            i = close + 1
            continue
        class_name = qual_parts[-2] if len(qual_parts) >= 2 else None
        if class_name is None:
            for cname, b0, b1 in class_spans:
                if b0 <= body_open < b1:
                    class_name = cname
                    break
        body, after = parse_block(tokens, body_open)
        out.append(FunctionInfo(
            name=name_t.text,
            qualname="::".join(qual_parts),
            class_name=class_name,
            return_type=return_type,
            params=_parse_params(tokens[i + 1:close]),
            line=name_t.line,
            body=body,
            requires_lock=_extract_requires(tokens[close + 1:body_open]),
        ))
        i = after
    return out


# --- class/member tables -----------------------------------------------------


def _extract_requires(tokens: List[Token]) -> List[str]:
    """Mutex names from LL_REQUIRES(...) occurrences in a signature tail."""
    out: List[str] = []
    for k, t in enumerate(tokens):
        if not _is(t, "id", "LL_REQUIRES") or \
                not _is(_at(tokens, k + 1), "op", "("):
            continue
        close = _matching(tokens, k + 1, "(", ")")
        out.extend(x.text for x in tokens[k + 2:close] if x.kind == "id")
    return out


def _parse_classes(tokens: List[Token]):
    """Returns ({name: ClassInfo}, class_spans, member_fn_decls)."""
    classes = {}
    spans = []
    member_decls: List[FunctionInfo] = []
    for cls, b0, b1 in _class_bodies(tokens):
        spans.append((cls, b0, b1))
        info = classes.setdefault(cls, ClassInfo(cls, tokens[b0].line
                                                 if b0 < len(tokens) else 0))
        for stmt in _member_statements(tokens, b0, b1):
            if _is_mutex_statement(stmt):
                ids = [t.text for t in stmt if t.kind == "id"]
                if ids:
                    info.mutexes.append(ids[-1])
                continue
            texts = [t.text for t in stmt]
            if "LL_GUARDED_BY" in texts or "LL_PT_GUARDED_BY" in texts:
                gi = texts.index("LL_GUARDED_BY") if "LL_GUARDED_BY" in texts \
                    else texts.index("LL_PT_GUARDED_BY")
                mutex = None
                if gi + 2 < len(texts) and texts[gi + 1] == "(":
                    mutex = texts[gi + 2]
                core = stmt[:gi]
                parsed = try_parse_decl(core)
                if parsed is None:
                    ids = [t for t in core if t.kind == "id"]
                    if not ids:
                        continue
                    fname = ids[-1].text
                    ftype = " ".join(t.text for t in core[:-1])
                else:
                    ftype, fname, _ = parsed
                info.fields[fname] = FieldInfo(
                    fname, ftype, stmt[0].line, guarded_by=mutex)
                continue
            # Member function declaration -> signature table entry.
            paren = None
            angle = 0
            for k, tk in enumerate(stmt):
                if tk.kind == "op":
                    if tk.text == "<":
                        angle += 1
                    elif tk.text == ">":
                        angle = max(0, angle - 1)
                    elif tk.text == ">>":
                        angle = max(0, angle - 2)
                    elif tk.text == "(" and angle == 0:
                        paren = k
                        break
            if paren is not None and paren >= 1 and \
                    stmt[paren - 1].kind == "id" and \
                    stmt[paren - 1].text not in _CONTROL_KEYWORDS:
                close = _matching(stmt, paren, "(", ")")
                if close < len(stmt):
                    fname = stmt[paren - 1].text
                    ret = " ".join(
                        t.text for t in stmt[:paren - 1]
                        if not (t.kind == "id" and t.text in (
                            "virtual", "static", "inline", "constexpr",
                            "explicit", "friend")))
                    member_decls.append(FunctionInfo(
                        name=fname, qualname=f"{cls}::{fname}",
                        class_name=cls, return_type=ret,
                        params=_parse_params(stmt[paren + 1:close]),
                        line=stmt[0].line, body=None,
                        requires_lock=_extract_requires(stmt[close + 1:])))
                continue
            # Plain field (no annotation).
            parsed = try_parse_decl(stmt)
            if parsed is not None:
                ftype, fname, _ = parsed
                info.fields[fname] = FieldInfo(fname, ftype, stmt[0].line)
    return classes, spans, member_decls


# --- entry points ------------------------------------------------------------


def parse_tokens(rel: str, tokens: List[Token]) -> TranslationUnit:
    classes, spans, member_decls = _parse_classes(tokens)
    functions = find_functions(tokens, spans)
    table = SymbolTable(classes=classes)
    for fn in list(functions) + member_decls:
        table.functions.setdefault(fn.name, []).append(fn)
    unordered = set(_unordered_decls(tokens))
    for cls in classes.values():
        for f in cls.fields.values():
            if "unordered_" in f.type_text:
                unordered.add(f.name)
    table.unordered_names = frozenset(unordered)
    return TranslationUnit(rel=rel, tokens=tokens, functions=functions,
                           symbols=table)


def load_tu(fs_path: Path, rel: str) -> TranslationUnit:
    """Parses one file; when given `foo.cc`, merges the sibling `foo.h`
    class/function tables so out-of-line methods see their fields."""
    text = fs_path.read_text(encoding="utf-8", errors="replace")
    tokens, _comments = tokenize(text)
    tu = parse_tokens(rel, tokens)
    if fs_path.suffix in (".cc", ".cpp", ".cxx"):
        for header_suffix in (".h", ".hpp", ".hh"):
            sibling = fs_path.with_suffix(header_suffix)
            if sibling.is_file():
                htext = sibling.read_text(encoding="utf-8", errors="replace")
                htokens, _ = tokenize(htext)
                htu = parse_tokens(rel, htokens)
                for name, cls in htu.symbols.classes.items():
                    mine = tu.symbols.classes.get(name)
                    if mine is None:
                        tu.symbols.classes[name] = cls
                    else:
                        for fname, finfo in cls.fields.items():
                            mine.fields.setdefault(fname, finfo)
                        mine.mutexes.extend(
                            m for m in cls.mutexes if m not in mine.mutexes)
                for name, fns in htu.symbols.functions.items():
                    tu.symbols.functions.setdefault(name, []).extend(
                        f for f in fns if f.body is None)
                tu.symbols.unordered_names = frozenset(
                    set(tu.symbols.unordered_names)
                    | set(htu.symbols.unordered_names))
                break
    return tu
