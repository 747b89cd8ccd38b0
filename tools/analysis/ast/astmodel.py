"""Shared IR for the flow-sensitive analysis layer.

The parser (parser.py) produces this model. It is a CFG-lite: function
bodies become ordered statement trees (Block/Stmt) whose leaves keep their
raw token slices, so rules can walk control structure *and* still
pattern-match expression tokens with the helpers the token layer already
proved out. Symbol tables (classes, fields, function signatures) are kept
apart from the statement trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..lexer import Token

# Statement kinds produced by the parsers. Control statements carry their
# parenthesized head in `head` and their bodies in `blocks` (if: then[,
# else]; loops: one body). 'decl' and 'expr' keep the whole statement in
# `head`.
STMT_KINDS = (
    "decl", "expr", "return", "if", "while", "dowhile", "for", "rangefor",
    "switch", "block", "break", "continue", "goto", "empty", "try",
)


@dataclass
class Param:
    type_text: str
    name: str


@dataclass
class FieldInfo:
    name: str
    type_text: str
    line: int
    guarded_by: Optional[str] = None  # mutex member named by LL_GUARDED_BY


@dataclass
class ClassInfo:
    name: str
    line: int
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    mutexes: List[str] = field(default_factory=list)


@dataclass
class Stmt:
    kind: str
    line: int
    head: List[Token] = field(default_factory=list)
    blocks: List["Block"] = field(default_factory=list)
    # kind == 'decl'
    decl_type: Optional[str] = None   # joined type text incl. trailing */&
    decl_name: Optional[str] = None
    init: Optional[List[Token]] = None
    # kind == 'rangefor'
    loop_var_type: Optional[str] = None
    loop_var: Optional[str] = None
    range_expr: Optional[List[Token]] = None
    # kind == 'for' (classic): the init clause, parsed as its own statement
    for_init: Optional["Stmt"] = None


@dataclass
class Block:
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class FunctionInfo:
    name: str                  # unqualified
    qualname: str              # 'Class::name' when the definition says so
    class_name: Optional[str]
    return_type: str           # joined token text; '' for ctors/dtors
    params: List[Param]
    line: int
    body: Optional[Block]      # None for pure declarations
    # Mutexes named by LL_REQUIRES on the declaration or definition: the
    # caller already holds them when the body runs.
    requires_lock: List[str] = field(default_factory=list)


@dataclass
class SymbolTable:
    """Type facts the rules consult.

    functions maps an *unqualified* name to every known signature; rules
    only act when the name resolves unambiguously (a single signature or
    signatures that agree), so partial tables degrade to silence, never to
    false positives.
    """
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    # Names (fields or file-level locals) known to be std::unordered_*.
    unordered_names: frozenset = frozenset()


@dataclass
class TranslationUnit:
    rel: str                   # repo-relative path
    tokens: List[Token]
    functions: List[FunctionInfo]   # definitions with bodies, in file order
    symbols: SymbolTable


def is_narrow_int(type_text: str) -> bool:
    """True when `type_text` names a <=32-bit integer type.

    Mirrors the token layer's _NARROW_INT set but works on joined type
    text (e.g. 'const std::int32_t', 'unsigned int', 'int32_t').
    """
    words = type_text.replace("std::", " ").replace("::", " ") \
        .replace("*", " ").replace("&", " ").split()
    words = [w for w in words if w not in ("const", "volatile", "signed")]
    if not words:
        return False
    if "long" in words or any(w in ("int64_t", "uint64_t", "intptr_t",
                                    "uintptr_t", "size_t", "ptrdiff_t",
                                    "double", "float", "auto")
                              for w in words):
        return False
    narrow = {"char", "short", "int", "int8_t", "int16_t", "int32_t",
              "uint8_t", "uint16_t", "uint32_t"}
    if words == ["unsigned"]:
        return True
    return any(w in narrow for w in words)


def walk_blocks(block: Block):
    """Pre-order walk yielding every Stmt in a block tree."""
    for stmt in block.stmts:
        yield stmt
        if stmt.for_init is not None:
            yield stmt.for_init
        for sub in stmt.blocks:
            yield from walk_blocks(sub)
