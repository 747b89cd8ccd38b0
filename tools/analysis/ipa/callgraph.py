"""Whole-program model: call graph + per-function summaries.

Built on the astmodel IR the AST parser produces. Every scanned file's
translation unit joins one Program; function definitions become nodes,
call expressions become edges (kind 'direct' for bare calls, 'method' for
x.f()/x->f()/C::f(), 'callback' for lambdas escaping into the deferred-
execution functions), and a monotone fixed point propagates the facts the
rules need across calls:

  all_acquires        every mutex a call into this function may acquire
  may_block           a blocking operation (cv wait, SweepRunner job
                      submission, file I/O, sleeps) is reachable
  releases_params     parameter indices the function (transitively)
                      releases back into an ObjectPool/BytesPool or
                      cancels on the Simulator
  registers_params    callback-typed parameter indices that (transitively)
                      escape into a deferred-execution registration

Resolution is deliberately conservative: a callee name that maps to more
than one known definition resolves only when the receiver's type picks
one; otherwise the edge stays unresolved and rules degrade to silence,
never to cross-class false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lexer import Token
from ..rules import _at, _is, _matching
from ..ast import parser as internal_parser
from ..ast.astmodel import Block, FunctionInfo, Stmt, TranslationUnit
from ..ast.rules import _DEFER_FNS, _find_lambdas, _split_args

# Lock-holder declaration types (RAII): scope = rest of enclosing block.
_LOCK_DECL_TYPES = ("MutexLock", "lock_guard", "unique_lock", "scoped_lock")

# Blocking free functions: C stdio and thread sleeps. Method-call variants
# are matched by receiver type below.
_BLOCKING_FREE_FNS = frozenset({
    "fopen", "fwrite", "fread", "fprintf", "vfprintf", "fputs", "fputc",
    "fflush", "fclose", "fsync", "fgets", "fscanf",
    "sleep_for", "sleep_until", "usleep", "nanosleep",
})

_POOL_RELEASE_METHODS = frozenset({"release", "invalidate"})

_CALLBACK_TYPE_HINT = ("Callback", "function")

_CONTROL_NOT_CALLS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_assert", "decltype", "catch", "noexcept", "new", "delete",
    "throw", "case", "do", "else", "alignas",
})


@dataclass
class CallSite:
    callee: str                      # unqualified name as spelled
    line: int
    kind: str                        # 'direct' | 'method' | 'callback'
    receiver: Optional[str]          # base identifier of x.f()/x->f()
    receiver_type: Optional[str]     # resolved type text, when known
    args: List[List[Token]]
    arg_names: List[Optional[str]]   # arg k's single core identifier
    held: Tuple[str, ...]            # normalized lock ids held here
    resolved: Optional["FunctionNode"] = None


@dataclass
class LockAcquire:
    mutex: str                       # normalized 'Class::member' or name
    line: int
    held: Tuple[str, ...]            # locks already held at this acquire


@dataclass
class BlockingOp:
    what: str                        # e.g. "CondVar::wait", "fwrite()"
    line: int
    held: Tuple[str, ...]
    waited_mutex: Optional[str] = None   # cv.wait(lk): lk's mutex


@dataclass
class ReleaseSite:
    var: str                         # handle variable released
    line: int
    kind: str                        # 'release' | 'cancel'


@dataclass
class Summary:
    acquires: List[LockAcquire] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockingOp] = field(default_factory=list)
    releases: List[ReleaseSite] = field(default_factory=list)
    releases_params: Set[int] = field(default_factory=set)
    registers_params: Set[int] = field(default_factory=set)
    # Fixed-point facts:
    all_acquires: Set[str] = field(default_factory=set)
    may_block: Optional[str] = None


@dataclass
class FunctionNode:
    uid: str                         # rel:line:qualname — unique
    rel: str
    fn: FunctionInfo
    tu: TranslationUnit
    summary: Summary = field(default_factory=Summary)
    is_callback: bool = False        # synthetic node for a deferred lambda


class Program:
    def __init__(self, tus: Sequence[TranslationUnit]):
        self.tus = list(tus)
        self.nodes: List[FunctionNode] = []
        self.by_name: Dict[str, List[FunctionNode]] = {}
        for tu in self.tus:
            for fn in tu.functions:
                if fn.body is None:
                    continue
                node = FunctionNode(
                    uid=f"{tu.rel}:{fn.line}:{fn.qualname}",
                    rel=tu.rel, fn=fn, tu=tu)
                self.nodes.append(node)
                self.by_name.setdefault(fn.name, []).append(node)
        for node in list(self.nodes):
            _summarize(node, self)
        _propagate(self)

    def resolve(self, cs: CallSite) -> Optional[FunctionNode]:
        """Unambiguous callee node for a call site, or None."""
        cands = self.by_name.get(cs.callee, ())
        if not cands:
            return None
        if cs.receiver_type:
            # A known receiver type is authoritative: a name-only match
            # against a method of some other class (CondVar::wait vs a
            # SweepRunner::wait) must not resolve.
            typed = [n for n in cands
                     if n.fn.class_name and n.fn.class_name in
                     cs.receiver_type]
            return typed[0] if len(typed) == 1 else None
        if len(cands) == 1:
            return cands[0]
        return None


# --- identity helpers --------------------------------------------------------


def _type_class(type_text: str) -> Optional[str]:
    """'const obs::Metrics&' -> 'Metrics'; last named segment of a type."""
    words = type_text.replace("*", " ").replace("&", " ").split()
    words = [w for w in words if w not in ("const", "volatile", "struct",
                                           "class", "typename")]
    if not words:
        return None
    return words[-1].split("<")[0].split("::")[-1] or None


class _Env:
    """Name -> type text for the walk: params, fields, then locals as
    their declarations are passed."""

    def __init__(self, node: FunctionNode):
        self.types: Dict[str, str] = {}
        self.node = node
        cls = node.fn.class_name
        info = node.tu.symbols.classes.get(cls) if cls else None
        self.class_info = info
        if info:
            for f in info.fields.values():
                self.types[f.name] = f.type_text
        for p in node.fn.params:
            self.types[p.name] = p.type_text
        # MutexLock local name -> normalized mutex it holds.
        self.lock_vars: Dict[str, str] = {}

    def see_decl(self, stmt: Stmt) -> None:
        if stmt.kind == "decl" and stmt.decl_name and stmt.decl_type:
            self.types[stmt.decl_name] = stmt.decl_type
        elif stmt.kind == "rangefor" and stmt.loop_var:
            self.types[stmt.loop_var] = stmt.loop_var_type or ""

    def type_of(self, name: str) -> Optional[str]:
        return self.types.get(name)

    def is_field(self, name: str) -> bool:
        return bool(self.class_info and (
            name in self.class_info.fields
            or name in self.class_info.mutexes))


def _normalize_mutex(tokens: Sequence[Token], env: _Env) -> str:
    """Mutex identity from an acquisition expression: 'Class::member' when
    the owner's type is known, a dotted chain otherwise. Strips &, *,
    std::move and a leading this->."""
    texts = [t.text for t in tokens
             if not (t.kind == "op" and t.text in ("&", "*", "(", ")"))]
    texts = [x for x in texts if x not in ("std", "move", "::")]
    while texts and texts[0] == "this":
        texts = texts[1:]
        if texts and texts[0] in (".", "->"):
            texts = texts[1:]
    ids = [x for x in texts if x not in (".", "->")]
    if not ids:
        return "<unknown-mutex>"
    member = ids[-1]
    if len(ids) == 1:
        if env.is_field(member) and env.node.fn.class_name:
            return f"{env.node.fn.class_name}::{member}"
        return member
    base = ids[-2]
    base_type = env.type_of(base)
    cls = _type_class(base_type) if base_type else None
    if cls:
        return f"{cls}::{member}"
    return ".".join(ids)


def _core_arg_name(arg: Sequence[Token]) -> Optional[str]:
    """The single identifier an argument reduces to, ignoring std::move
    and address-of — None for anything more structured."""
    ids = [t.text for t in arg if t.kind == "id"
           and t.text not in ("std", "move")]
    ops = [t.text for t in arg if t.kind == "op"
           and t.text not in ("&", "(", ")", "::", ",")]
    if len(ids) == 1 and not ops:
        return ids[0]
    return None


def _lambda_body_spans(tokens: Sequence[Token]) -> List[Tuple[int, int]]:
    """Token index ranges of lambda bodies inside a statement head: code
    there runs later, not at this statement, so lock/call facts must not
    attribute it to the current context."""
    spans: List[Tuple[int, int]] = []
    for intro, _caps, after in _find_lambdas(tokens):
        j = after
        if _is(_at(tokens, j), "op", "("):
            j = _matching(tokens, j, "(", ")") + 1
        while _is(_at(tokens, j), "id", "mutable") or \
                _is(_at(tokens, j), "id", "noexcept"):
            j += 1
        if _is(_at(tokens, j), "op", "->"):
            while j < len(tokens) and not _is(tokens[j], "op", "{"):
                j += 1
        if _is(_at(tokens, j), "op", "{"):
            close = _matching(tokens, j, "{", "}")
            spans.append((j, close))
    return spans


def _in_spans(i: int, spans: Sequence[Tuple[int, int]]) -> bool:
    return any(a <= i <= b for a, b in spans)


# --- local summarization -----------------------------------------------------


def _stmt_call_sites(stmt: Stmt, env: _Env,
                     held: Tuple[str, ...]) -> List[CallSite]:
    tokens = stmt.head
    spans = _lambda_body_spans(tokens)
    out: List[CallSite] = []
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text in _CONTROL_NOT_CALLS:
            continue
        if not _is(_at(tokens, i + 1), "op", "("):
            continue
        if _in_spans(i, spans):
            continue
        close = _matching(tokens, i + 1, "(", ")")
        args = _split_args(tokens[i + 2:close])
        receiver = None
        receiver_type = None
        kind = "direct"
        prev = _at(tokens, i - 1)
        if _is(prev, "op", ".") or _is(prev, "op", "->") or \
                _is(prev, "op", "::"):
            kind = "method"
            base = _at(tokens, i - 2)
            if base is not None and base.kind == "id":
                receiver = base.text
                if _is(prev, "op", "::"):
                    receiver_type = base.text
                else:
                    bt = env.type_of(base.text)
                    receiver_type = bt
        out.append(CallSite(
            callee=t.text, line=t.line, kind=kind, receiver=receiver,
            receiver_type=receiver_type, args=args,
            arg_names=[_core_arg_name(a) for a in args], held=held))
    return out


def releases_in_stmt(stmt: Stmt, env: _Env,
                     program: Optional["Program"],
                     node: FunctionNode) -> List[ReleaseSite]:
    """Pool/event handles this statement releases: direct release(h)/
    invalidate(h) on a pool-typed receiver, cancel(id) on the Simulator,
    and — when `program` is given — calls whose summary says a parameter
    is (transitively) released."""
    out: List[ReleaseSite] = []
    for cs in _stmt_call_sites(stmt, env, ()):
        released_args: List[int] = []
        lowered = (cs.receiver or "").lower()
        rtype = cs.receiver_type or ""
        if cs.callee in _POOL_RELEASE_METHODS and cs.args:
            poolish = "Pool" in rtype or "pool" in lowered
            if not poolish and cs.kind == "direct" and env.class_info:
                # Bare release(x) inside a class that defines one.
                poolish = any(
                    n.fn.class_name == env.node.fn.class_name
                    and n.fn.name == cs.callee
                    for n in (program.by_name.get(cs.callee, ())
                              if program else ()))
            if poolish:
                released_args.append(0)
        elif cs.callee == "cancel" and len(cs.args) == 1:
            simish = "Simulator" in rtype or "sim" in lowered
            if simish:
                released_args.append(0)
        elif program is not None:
            callee = program.resolve(cs)
            if callee is not None and callee.summary.releases_params:
                released_args.extend(
                    k for k in sorted(callee.summary.releases_params)
                    if k < len(cs.args))
        kind = "cancel" if cs.callee == "cancel" else "release"
        for k in released_args:
            var = cs.arg_names[k] if k < len(cs.arg_names) else None
            if var is not None:
                out.append(ReleaseSite(var=var, line=cs.line, kind=kind))
    return out


def _stmt_blocking(stmt: Stmt, env: _Env,
                   held: Tuple[str, ...]) -> List[BlockingOp]:
    tokens = stmt.head
    spans = _lambda_body_spans(tokens)
    out: List[BlockingOp] = []
    for i, t in enumerate(tokens):
        if t.kind != "id" or not _is(_at(tokens, i + 1), "op", "("):
            continue
        if _in_spans(i, spans):
            continue
        prev = _at(tokens, i - 1)
        is_method = _is(prev, "op", ".") or _is(prev, "op", "->")
        base = _at(tokens, i - 2) if is_method else None
        base_type = env.type_of(base.text) if base is not None and \
            base.kind == "id" else None
        if t.text in _BLOCKING_FREE_FNS and not is_method:
            out.append(BlockingOp(f"{t.text}()", t.line, held))
            continue
        if t.text == "wait" and is_method and base is not None:
            btype = base_type or ""
            if "CondVar" in btype or "condition_variable" in btype or \
                    base.text.rstrip("_").endswith("cv") or \
                    base.text.startswith("cv"):
                close = _matching(tokens, i + 1, "(", ")")
                args = _split_args(tokens[i + 2:close])
                waited = None
                if args:
                    lk = _core_arg_name(args[0])
                    if lk is not None:
                        waited = env.lock_vars.get(lk)
                out.append(BlockingOp("CondVar::wait", t.line, held,
                                      waited_mutex=waited))
            elif "SweepRunner" in (base_type or ""):
                out.append(BlockingOp("SweepRunner::wait", t.line, held))
            continue
        if t.text == "submit" and is_method and \
                "SweepRunner" in (base_type or ""):
            out.append(BlockingOp("SweepRunner::submit", t.line, held))
    return out


def _is_lock_decl(stmt: Stmt) -> bool:
    return stmt.kind == "decl" and stmt.decl_type is not None and \
        any(l in stmt.decl_type for l in _LOCK_DECL_TYPES) and \
        bool(stmt.init)


def _walk_summarize(block: Block, held: List[Tuple[str, int]],
                    env: _Env, node: FunctionNode,
                    program: "Program") -> None:
    s = node.summary
    local_held = list(held)
    for stmt in block.stmts:
        held_ids = tuple(m for m, _ln in local_held)
        if _is_lock_decl(stmt):
            mutex = _normalize_mutex(stmt.init or [], env)
            s.acquires.append(LockAcquire(mutex, stmt.line, held_ids))
            local_held.append((mutex, stmt.line))
            if stmt.decl_name:
                env.lock_vars[stmt.decl_name] = mutex
            env.see_decl(stmt)
            continue
        env.see_decl(stmt)
        if stmt.for_init is not None:
            env.see_decl(stmt.for_init)
        if stmt.head:
            s.calls.extend(_stmt_call_sites(stmt, env, held_ids))
            s.blocking.extend(_stmt_blocking(stmt, env, held_ids))
            s.releases.extend(releases_in_stmt(stmt, env, None, node))
        for sub in stmt.blocks:
            _walk_summarize(sub, local_held, env, node, program)


def _callback_nodes(node: FunctionNode, program: "Program") -> None:
    """Synthetic nodes for lambdas escaping into deferred execution, so a
    callback's own body is summarized in callback context (no caller
    locks held) and its calls join the graph with kind 'callback'."""
    for cs in list(node.summary.calls):
        if cs.callee not in _DEFER_FNS:
            continue
        for arg in cs.args:
            for intro, _caps, _after in _find_lambdas(arg):
                spans = _lambda_body_spans(arg)
                if not spans:
                    continue
                open_idx, close_idx = spans[0]
                body, _ = internal_parser.parse_block(list(arg), open_idx)
                lam_fn = FunctionInfo(
                    name=f"<lambda:{node.rel}:{cs.line}>",
                    qualname=f"{node.fn.qualname}::<lambda:{cs.line}>",
                    class_name=node.fn.class_name, return_type="",
                    params=[], line=cs.line, body=body)
                lam = FunctionNode(
                    uid=f"{node.rel}:{cs.line}:<lambda>",
                    rel=node.rel, fn=lam_fn, tu=node.tu, is_callback=True)
                program.nodes.append(lam)
                _summarize(lam, program)
                node.summary.calls.append(CallSite(
                    callee=lam_fn.name, line=cs.line, kind="callback",
                    receiver=None, receiver_type=None, args=[],
                    arg_names=[], held=cs.held, resolved=lam))
                break  # one body span per arg slice


def _summarize(node: FunctionNode, program: "Program") -> None:
    env = _Env(node)
    s = node.summary
    held0: List[Tuple[str, int]] = []
    for req in node.fn.requires_lock:
        mutex = _normalize_mutex(
            [Token("id", req, node.fn.line)], env)
        held0.append((mutex, node.fn.line))
    if node.fn.body is not None:
        _walk_summarize(node.fn.body, held0, env, node, program)
    s.all_acquires = {a.mutex for a in s.acquires}
    for op in s.blocking:
        if s.may_block is None:
            s.may_block = op.what
    # Direct param facts.
    param_index = {p.name: k for k, p in enumerate(node.fn.params)
                   if p.name}
    for r in s.releases:
        if r.var in param_index:
            s.releases_params.add(param_index[r.var])
    for cs in s.calls:
        if cs.callee in _DEFER_FNS:
            for arg in cs.args:
                name = _core_arg_name(arg)
                if name in param_index:
                    p = node.fn.params[param_index[name]]
                    if any(h in p.type_text for h in _CALLBACK_TYPE_HINT):
                        s.registers_params.add(param_index[name])
    if not node.is_callback:
        _callback_nodes(node, program)


def _propagate(program: "Program") -> None:
    """Monotone fixed point for all_acquires / may_block /
    releases_params / registers_params across resolved edges."""
    for node in program.nodes:
        for cs in node.summary.calls:
            if cs.resolved is None:
                cs.resolved = program.resolve(cs)
    changed = True
    guard = 0
    while changed and guard < 1000:
        changed = False
        guard += 1
        for node in program.nodes:
            s = node.summary
            param_index = {p.name: k for k, p in enumerate(node.fn.params)
                          if p.name}
            for cs in s.calls:
                callee = cs.resolved
                if callee is None or callee is node:
                    continue
                t = callee.summary
                new = t.all_acquires - s.all_acquires
                if new:
                    s.all_acquires |= new
                    changed = True
                if s.may_block is None and t.may_block is not None:
                    s.may_block = (f"calls {callee.fn.name}() which may "
                                   f"block ({t.may_block})")
                    changed = True
                for k in sorted(t.releases_params):
                    if k < len(cs.arg_names) and \
                            cs.arg_names[k] in param_index:
                        p = param_index[cs.arg_names[k]]
                        if p not in s.releases_params:
                            s.releases_params.add(p)
                            changed = True
                for k in sorted(t.registers_params):
                    if k < len(cs.arg_names) and \
                            cs.arg_names[k] in param_index:
                        p = param_index[cs.arg_names[k]]
                        if p not in s.registers_params:
                            s.registers_params.add(p)
                            changed = True
