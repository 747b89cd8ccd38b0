"""Rule implementations for the longlook token-aware analyzer.

Every rule consumes the token stream produced by lexer.tokenize() and
returns (line, message) findings. Path scoping is by substring fragment,
so the self-test fixtures can opt into a scope by embedding the fragment in
their directory name (e.g. fixtures/bad/harness/).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .lexer import Token

# Paths whose files produce ordered, user-visible output (reports, traces,
# inferred state machines): unordered containers are banned outright there.
ORDER_SENSITIVE_PATHS = ("harness/", "net/trace", "stats/", "smi/")

# Layers that must emit through obs:: sinks instead of writing to stdio.
SINK_ENFORCED_PATHS = ("quic/", "tcp/", "cc/", "net/")

# Simulation layers that run purely on virtual time: any wall-clock read
# there is a determinism bug. obs (the profiler is the sanctioned reader),
# harness, and bench are exempt.
SIM_LAYER_PATHS = ("quic/", "tcp/", "cc/", "net/", "sim/")


class RuleFinding(NamedTuple):
    line: int
    message: str


class Rule(NamedTuple):
    name: str
    applies_to: Callable[[str], bool]
    check: Callable[[List[Token]], List[RuleFinding]]
    doc: str


def _everywhere(_rel: str) -> bool:
    return True


def _order_sensitive(rel: str) -> bool:
    return any(frag in rel for frag in ORDER_SENSITIVE_PATHS)


def _sink_enforced(rel: str) -> bool:
    return any(frag in rel for frag in SINK_ENFORCED_PATHS)


def _sim_layer(rel: str) -> bool:
    return any(frag in rel for frag in SIM_LAYER_PATHS)


# --- token-stream helpers ---------------------------------------------------

def _is(tok: Optional[Token], kind: str, text: Optional[str] = None) -> bool:
    return tok is not None and tok.kind == kind and (
        text is None or tok.text == text
    )


def _at(tokens: Sequence[Token], i: int) -> Optional[Token]:
    return tokens[i] if 0 <= i < len(tokens) else None


def _match_qualified(tokens: Sequence[Token], i: int):
    """Reads an optionally std::-qualified name at i.

    Returns (joined_text, next_index) or None. Only handles the two-level
    `std::X` / bare `X` shapes the rules need.
    """
    t = _at(tokens, i)
    if not _is(t, "id"):
        return None
    if t.text == "std" and _is(_at(tokens, i + 1), "op", "::") and _is(
        _at(tokens, i + 2), "id"
    ):
        return "std::" + tokens[i + 2].text, i + 3
    return t.text, i + 1


def _matching(tokens: Sequence[Token], i: int, open_t: str, close_t: str):
    """Given tokens[i] == open_t, returns the index of the matching close_t
    (or len(tokens) if unbalanced)."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j]
        if t.kind == "op":
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return j
        j += 1
    return len(tokens)


def _statement_starts(tokens: Sequence[Token]) -> List[int]:
    """Indices where a statement/declaration may begin: file start and the
    token after each ';', '{', '}', or access-specifier ':'."""
    starts = [0]
    for i, t in enumerate(tokens[:-1]):
        if t.kind == "op" and t.text in (";", "{", "}"):
            starts.append(i + 1)
        elif (
            t.kind == "op" and t.text == ":" and i > 0
            and tokens[i - 1].kind == "id"
            and tokens[i - 1].text in ("public", "private", "protected")
        ):
            starts.append(i + 1)
    return starts


# --- legacy rule family: wall-clock ----------------------------------------

_WALL_CLOCK_IDS = frozenset({
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "localtime", "gmtime",
})


def _check_wall_clock(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = "wall-clock time source (virtual time comes from Simulator::now())"
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text in _WALL_CLOCK_IDS:
            out.append(RuleFinding(t.line, msg))
            continue
        if t.text == "time":
            prev2, prev1 = _at(tokens, i - 2), _at(tokens, i - 1)
            if _is(prev1, "op", "::") and _is(prev2, "id", "std"):
                # std::time — but not std::chrono::...::time_point etc.
                out.append(RuleFinding(t.line, msg))
                continue
            if _is(_at(tokens, i + 1), "op", "(") and (
                _is(_at(tokens, i + 2), "id", "NULL")
                or _is(_at(tokens, i + 2), "id", "nullptr")
                or _is(_at(tokens, i + 2), "num", "0")
            ) and _is(_at(tokens, i + 3), "op", ")"):
                if not _is(prev1, "op", ".") and not _is(prev1, "op", "->"):
                    out.append(RuleFinding(t.line, msg))
    return out


def _check_wall_clock_outside_obs(tokens: List[Token]) -> List[RuleFinding]:
    msg = ("wall-clock read in a simulation layer (profiling wall time "
           "belongs in obs::Profiler; obs/harness/bench are the only "
           "sanctioned readers)")
    return [RuleFinding(f.line, msg) for f in _check_wall_clock(tokens)]


# --- legacy rule family: raw-rand ------------------------------------------

def _check_raw_rand(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = "nondeterministic RNG (use util/Rng seeded from the scenario)"
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        prev = _at(tokens, i - 1)
        member = _is(prev, "op", ".") or _is(prev, "op", "->")
        if member:
            continue  # rng.random(...) etc. is someone's method, not libc
        if t.text == "drand48":
            out.append(RuleFinding(t.line, msg))
        elif t.text in ("srand", "rand") and _is(_at(tokens, i + 1), "op", "("):
            if t.text == "rand" and not _is(_at(tokens, i + 2), "op", ")"):
                continue  # rand(x) is not libc rand()
            out.append(RuleFinding(t.line, msg))
        elif t.text == "random" and _is(
            _at(tokens, i + 1), "op", "("
        ) and _is(_at(tokens, i + 2), "op", ")"):
            out.append(RuleFinding(t.line, msg))
        elif t.text in ("random_device", "default_random_engine") or \
                t.text.startswith("mt19937"):
            if _is(prev, "op", "::") and _is(_at(tokens, i - 2), "id", "std"):
                out.append(RuleFinding(t.line, msg))
    return out


# --- unordered containers ---------------------------------------------------

def _unordered_decls(tokens: Sequence[Token]) -> frozenset:
    """Names declared in this file as std::unordered_* containers."""
    names = set()
    i = 0
    while i < len(tokens) - 3:
        if (
            _is(tokens[i], "id", "std")
            and _is(tokens[i + 1], "op", "::")
            and _is(_at(tokens, i + 2), "id")
            and tokens[i + 2].text.startswith("unordered_")
            and _is(_at(tokens, i + 3), "op", "<")
        ):
            close = _close_angle(tokens, i + 3)
            nxt = _at(tokens, close + 1)
            if _is(nxt, "id"):
                names.add(nxt.text)
            i = close + 1
        else:
            i += 1
    return frozenset(names)


def _close_angle(tokens: Sequence[Token], i: int) -> int:
    """tokens[i] == '<'; returns index of the matching '>' (treating '>>' as
    two closes), or len(tokens)."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j]
        if t.kind == "op":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return j
            elif t.text in (";", "{", "}"):
                return j  # never a template argument list
        j += 1
    return len(tokens)


def _range_for_loops(tokens: Sequence[Token]):
    """Yields (colon_index, close_paren_index, container_tokens, body_span)
    for each range-for. body_span is (start, end) token indices."""
    for i, t in enumerate(tokens):
        if not (_is(t, "id", "for") and _is(_at(tokens, i + 1), "op", "(")):
            continue
        close = _matching(tokens, i + 1, "(", ")")
        colon = None
        depth = 0
        for j in range(i + 1, close):
            tj = tokens[j]
            if tj.kind != "op":
                continue
            if tj.text in "([{":
                depth += 1
            elif tj.text in ")]}":
                depth -= 1
            elif tj.text == ";":
                break  # classic for
            elif tj.text == ":" and depth == 1 and colon is None:
                colon = j
        if colon is None:
            continue
        container = list(tokens[colon + 1:close])
        body_start = close + 1
        if _is(_at(tokens, body_start), "op", "{"):
            body_end = _matching(tokens, body_start, "{", "}")
        else:
            body_end = body_start
            while body_end < len(tokens) and not _is(
                tokens[body_end], "op", ";"
            ):
                body_end += 1
        yield colon, close, container, (body_start, body_end)


def _check_unordered_iteration(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    decls = _unordered_decls(tokens)
    msg = "iterating an unordered container (order is implementation-defined)"
    for colon, _close, container, _body in _range_for_loops(tokens):
        hit = False
        for t in container:
            if t.kind == "id" and ("unordered" in t.text or t.text in decls):
                hit = True
                break
        if hit:
            out.append(RuleFinding(tokens[colon].line, msg))
    return out


def _check_unordered_in_report(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = "unordered container in an output-producing layer"
    for i, t in enumerate(tokens):
        if (
            t.kind == "id" and t.text.startswith("unordered_")
            and _is(_at(tokens, i - 1), "op", "::")
            and _is(_at(tokens, i - 2), "id", "std")
        ):
            out.append(RuleFinding(t.line, msg))
    return out


# --- pointer-keyed-map ------------------------------------------------------

def _check_pointer_keyed_map(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = (
        "pointer-keyed ordered container (iterates in allocation order, "
        "which differs run to run)"
    )
    for i, t in enumerate(tokens):
        if not (
            t.kind == "id"
            and t.text in ("map", "multimap", "set", "multiset")
            and _is(_at(tokens, i - 1), "op", "::")
            and _is(_at(tokens, i - 2), "id", "std")
            and _is(_at(tokens, i + 1), "op", "<")
        ):
            continue
        # First template argument: from i+2 to the ',' or '>' at depth 1.
        j = i + 2
        depth = 1
        last = None
        while j < len(tokens):
            tj = tokens[j]
            if tj.kind == "op":
                if tj.text == "<":
                    depth += 1
                elif tj.text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif tj.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                elif tj.text == "," and depth == 1:
                    break
                elif tj.text in (";", "{", "}"):
                    break
            last = tj
            j += 1
        if last is not None and _is(last, "op", "*"):
            out.append(RuleFinding(t.line, msg))
    return out


# --- uninitialized-pod ------------------------------------------------------

_POD_SINGLE = frozenset({
    "bool", "char", "short", "int", "long", "float", "double",
    "Duration", "TimePoint", "PacketNumber", "EventId", "StreamId",
    "Port", "Address",
})
_POD_STD = frozenset({
    "size_t", "ptrdiff_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
})


def _match_pod_type(tokens: Sequence[Token], i: int):
    """Matches a POD type at i; returns next index or None."""
    t = _at(tokens, i)
    if not _is(t, "id"):
        return None
    if t.text == "unsigned":
        nxt = _at(tokens, i + 1)
        if _is(nxt, "id") and nxt.text in ("char", "short", "int", "long"):
            return i + 2
        return i + 1
    if t.text == "std" and _is(_at(tokens, i + 1), "op", "::"):
        nxt = _at(tokens, i + 2)
        if _is(nxt, "id") and nxt.text in _POD_STD:
            return i + 3
        return None
    if t.text in _POD_SINGLE:
        return i + 1
    return None


def _check_uninitialized_pod(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = "POD declaration without an initializer"
    # Paren depth per token, so parameter lists don't look like declarations.
    depth = 0
    depths = []
    for t in tokens:
        if t.kind == "op" and t.text == "(":
            depth += 1
        depths.append(depth)
        if t.kind == "op" and t.text == ")":
            depth = max(0, depth - 1)
    for start in _statement_starts(tokens):
        i = start
        if i >= len(tokens) or depths[i] > 0:
            continue
        if _is(_at(tokens, i), "id", "static"):
            i += 1
        if _is(_at(tokens, i), "id", "mutable"):
            i += 1
        after_type = _match_pod_type(tokens, i)
        if after_type is None:
            continue
        name = _at(tokens, after_type)
        if not _is(name, "id") or name.text in ("const", "operator"):
            continue
        j = after_type + 1
        if _is(_at(tokens, j), "op", "["):
            j = _matching(tokens, j, "[", "]") + 1
        if _is(_at(tokens, j), "op", ";"):
            out.append(RuleFinding(name.line, msg))
    return out


# --- direct-io --------------------------------------------------------------

_STDIO_FNS = frozenset({
    "printf", "fprintf", "fputs", "fputc", "puts", "fwrite",
})


def _check_direct_io(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    msg = (
        "direct stdio in a sink-enforced layer "
        "(emit obs:: trace events / metrics instead)"
    )
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        prev = _at(tokens, i - 1)
        if _is(prev, "op", ".") or _is(prev, "op", "->"):
            continue
        if t.text in _STDIO_FNS and _is(_at(tokens, i + 1), "op", "("):
            out.append(RuleFinding(t.line, msg))
        elif t.text in ("cout", "cerr", "clog") and _is(
            prev, "op", "::"
        ) and _is(_at(tokens, i - 2), "id", "std"):
            out.append(RuleFinding(t.line, msg))
    return out


# --- narrowing-time-arith ---------------------------------------------------

_NARROW_INT = frozenset({
    "char", "short", "int",
    "int8_t", "int16_t", "int32_t",
    "uint8_t", "uint16_t", "uint32_t",
})
_UNSIGNED_INT = frozenset({
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "uintptr_t", "size_t",
})
_TIME_SUFFIXES = ("_us", "_ms", "_ns")
_PN_IDS = frozenset({
    "pn", "packet_number", "largest_acked", "largest_observed",
    "largest_received", "least_unacked", "next_packet_number",
})


def _parse_cast_type(tokens: Sequence[Token], i: int):
    """Parses a type name at i (inside static_cast<...> or a C cast).

    Returns (is_narrow, is_unsigned, next_index) or None for types the
    narrowing rule does not care about.
    """
    t = _at(tokens, i)
    if not _is(t, "id"):
        return None
    if _is(t, "id", "const"):
        return _parse_cast_type(tokens, i + 1)
    if t.text == "unsigned":
        j = i + 1
        nxt = _at(tokens, j)
        narrow = True
        if _is(nxt, "id") and nxt.text in ("char", "short", "int", "long"):
            narrow = nxt.text != "long"
            j += 1
            if _is(_at(tokens, j), "id", "long"):  # unsigned long long
                narrow = False
                j += 1
        return narrow, True, j
    if t.text == "signed":
        j = i + 1
        nxt = _at(tokens, j)
        if _is(nxt, "id") and nxt.text in ("char", "short", "int", "long"):
            return nxt.text != "long", False, j + 1
        return True, False, j
    if t.text == "std" and _is(_at(tokens, i + 1), "op", "::"):
        nxt = _at(tokens, i + 2)
        if not _is(nxt, "id"):
            return None
        name, j = nxt.text, i + 3
    else:
        name, j = t.text, i + 1
    if name in _NARROW_INT or name in _UNSIGNED_INT:
        return name in _NARROW_INT, name in _UNSIGNED_INT, j
    return None


def _taint(tokens: Sequence[Token]):
    """Returns (time_tainted, pn_tainted) for an expression token list."""
    time_t = False
    pn_t = False
    for k, t in enumerate(tokens):
        if t.kind != "id":
            continue
        if t.text.endswith(_TIME_SUFFIXES) or t.text == "time_since_epoch":
            time_t = True
        elif (
            t.text == "count" and k > 0 and tokens[k - 1].kind == "op"
            and tokens[k - 1].text in (".", "->")
            and k + 1 < len(tokens) and tokens[k + 1].kind == "op"
            and tokens[k + 1].text == "("
        ):
            time_t = True  # .count() — Duration/TimePoint accessor
        if t.text in _PN_IDS or t.text.endswith("_pn"):
            pn_t = True
    return time_t, pn_t


def _narrowing_message(narrow: bool, unsigned: bool, time_t: bool,
                       pn_t: bool) -> str:
    what = "time value" if time_t else "packet number"
    if narrow:
        return (
            f"truncating cast: {what} narrowed to a <=32-bit integer "
            "(compute in std::int64_t / PacketNumber width)"
        )
    return (
        f"signed/unsigned mix: {what} cast to an unsigned type "
        "(a negative duration becomes a huge positive value)"
    )


def _check_narrowing_time_arith(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    n = len(tokens)
    for i, t in enumerate(tokens):
        # static_cast<T>(expr)
        if _is(t, "id", "static_cast") and _is(_at(tokens, i + 1), "op", "<"):
            parsed = _parse_cast_type(tokens, i + 2)
            if parsed is None:
                continue
            narrow, unsigned, after = parsed
            if not _is(_at(tokens, after), "op", ">") or not _is(
                _at(tokens, after + 1), "op", "("
            ):
                continue
            close = _matching(tokens, after + 1, "(", ")")
            time_t, pn_t = _taint(tokens[after + 2:close])
            if narrow and (time_t or pn_t):
                out.append(RuleFinding(
                    t.line, _narrowing_message(True, unsigned, time_t, pn_t)))
            elif unsigned and time_t:
                out.append(RuleFinding(
                    t.line, _narrowing_message(False, True, time_t, pn_t)))
            continue
        # C-style cast: (T)expr where expr is a primary expression. Only
        # fires when the '(' cannot be a call/declaration paren.
        if _is(t, "op", "(") :
            prev = _at(tokens, i - 1)
            if prev is not None and (
                (prev.kind == "id" and prev.text not in (
                    "return", "throw", "case", "co_return", "co_yield"))
                or prev.kind == "num"
                or (prev.kind == "op" and prev.text in (")", "]"))
            ):
                continue  # call or declarator paren, not a cast
            parsed = _parse_cast_type(tokens, i + 1)
            if parsed is None:
                continue
            narrow, unsigned, after = parsed
            if not _is(_at(tokens, after), "op", ")"):
                continue
            nxt = _at(tokens, after + 1)
            if nxt is None or not (nxt.kind in ("id", "num")
                                   or _is(nxt, "op", "(")):
                continue
            # Primary expression: id/number chains with member access,
            # calls, and one parenthesized group.
            j = after + 1
            expr = []
            depth = 0
            while j < n:
                tj = tokens[j]
                if tj.kind == "op":
                    if tj.text in ("(", "["):
                        depth += 1
                    elif tj.text in (")", "]"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif depth == 0 and tj.text not in (".", "->", "::"):
                        break
                expr.append(tj)
                j += 1
            time_t, pn_t = _taint(expr)
            if narrow and (time_t or pn_t):
                out.append(RuleFinding(
                    t.line, _narrowing_message(True, unsigned, time_t, pn_t)))
            elif unsigned and time_t:
                out.append(RuleFinding(
                    t.line, _narrowing_message(False, True, time_t, pn_t)))
            continue
    # Narrow declarations initialized from tainted expressions:
    #   int rtt = smoothed_rtt_us; / const int x = d.count();
    for start in _statement_starts(tokens):
        i = start
        if _is(_at(tokens, i), "id", "const") or _is(
            _at(tokens, i), "id", "static"
        ):
            i += 1
        parsed = _parse_cast_type(tokens, i)
        if parsed is None:
            continue
        narrow, unsigned, after = parsed
        if not narrow:
            continue
        name = _at(tokens, after)
        if not _is(name, "id"):
            continue
        if not _is(_at(tokens, after + 1), "op", "="):
            continue
        j = after + 2
        expr = []
        depth = 0
        while j < n:
            tj = tokens[j]
            if tj.kind == "op":
                if tj.text in ("(", "[", "{"):
                    depth += 1
                elif tj.text in (")", "]", "}"):
                    depth -= 1
                elif tj.text == ";" and depth <= 0:
                    break
            expr.append(tj)
            j += 1
        time_t, pn_t = _taint(expr)
        if time_t or pn_t:
            out.append(RuleFinding(
                name.line,
                _narrowing_message(True, unsigned, time_t, pn_t)))
    # The cast and decl-init passes can both match one line (e.g.
    # `int x = static_cast<int>(rtt_us);`): report it once.
    return sorted(set(out))


# --- container-mutation-in-loop ---------------------------------------------

_MUTATORS = frozenset({
    "erase", "insert", "push_back", "emplace", "emplace_back",
    "push_front", "pop_back", "pop_front", "clear", "resize",
})


def _check_container_mutation(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    for _colon, _close, container, (b0, b1) in _range_for_loops(tokens):
        # Normalize the container expression; skip call results (no stable
        # object to compare against).
        sig = [t.text for t in container]
        if "(" in sig:
            continue
        if not sig:
            continue
        m = len(sig)
        j = b0
        while j + m + 1 < b1:
            prev = _at(tokens, j - 1)
            if _is(prev, "op", ".") or _is(prev, "op", "->") or _is(
                prev, "op", "::"
            ):
                j += 1
                continue  # other.events.push_back: a different object
            window = [tokens[j + k].text for k in range(m)]
            if window == sig:
                dot = _at(tokens, j + m)
                mem = _at(tokens, j + m + 1)
                if (
                    _is(dot, "op", ".") or _is(dot, "op", "->")
                ) and _is(mem, "id") and mem.text in _MUTATORS and _is(
                    _at(tokens, j + m + 2), "op", "("
                ):
                    out.append(RuleFinding(
                        mem.line,
                        f"'{''.join(sig)}.{mem.text}()' mutates the "
                        "container being range-for iterated "
                        "(iterator invalidation)"))
                    j += m + 2
                    continue
            j += 1
    return out


# --- missing-lock-annotation ------------------------------------------------

_MUTEX_TYPES = (
    ("std", "::", "mutex"),
    ("std", "::", "recursive_mutex"),
    ("std", "::", "shared_mutex"),
    ("std", "::", "timed_mutex"),
    ("util", "::", "Mutex"),
    ("Mutex",),
)
_FIELD_EXEMPT_IDS = frozenset({
    "static", "constexpr", "using", "typedef", "friend", "enum", "class",
    "struct", "union", "atomic", "condition_variable", "CondVar",
    "operator",  # `T& operator=(...) = delete;` is not a field
    "LL_GUARDED_BY", "LL_PT_GUARDED_BY",
})


def _is_mutex_statement(stmt: Sequence[Token]) -> bool:
    texts = [t.text for t in stmt if t.kind in ("id", "op")]
    while texts and texts[0] == "mutable":
        texts.pop(0)
    for pattern in _MUTEX_TYPES:
        if tuple(texts[:len(pattern)]) == pattern:
            # Followed by the member name and nothing structural.
            rest = texts[len(pattern):]
            if len(rest) >= 1 and rest[0] not in ("<", "("):
                return True
    return False


def _class_bodies(tokens: Sequence[Token]):
    """Yields (class_name, body_start, body_end) for class/struct
    definitions (any nesting)."""
    for i, t in enumerate(tokens):
        if not (_is(t, "id", "class") or _is(t, "id", "struct")):
            continue
        prev = _at(tokens, i - 1)
        if _is(prev, "id", "enum") or _is(prev, "op", "<"):
            continue  # enum class / template parameter
        # Find the '{' or ';' that ends the head; skip base-clause parens.
        j = i + 1
        name = None
        while j < len(tokens):
            tj = tokens[j]
            if _is(tj, "id") and name is None and tj.text not in (
                "final", "alignas"
            ):
                name = tj.text
            if tj.kind == "op":
                if tj.text == ";":
                    j = None
                    break
                if tj.text == "{":
                    break
                if tj.text == "(":
                    j = _matching(tokens, j, "(", ")")
            j += 1
        if j is None or j >= len(tokens):
            continue
        body_end = _matching(tokens, j, "{", "}")
        yield name or "<anon>", j + 1, body_end


def _member_statements(tokens: Sequence[Token], start: int, end: int):
    """Yields member statements at class-body depth 0 as token lists.
    Nested braces (method bodies, nested classes, initializers) collapse to
    a single '{}' marker."""
    stmt: List[Token] = []
    i = start
    while i < end:
        t = tokens[i]
        if t.kind == "op" and t.text == "{":
            close = _matching(tokens, i, "{", "}")
            stmt.append(Token("op", "{}", t.line))
            i = close + 1
            # A '}' that closes a method body ends the statement too.
            if _is(_at(tokens, i), "op", ";"):
                i += 1
            stmt = []
            continue
        if t.kind == "op" and t.text == ";":
            if stmt:
                yield stmt
            stmt = []
            i += 1
            continue
        if (
            t.kind == "op" and t.text == ":" and stmt
            and stmt[-1].kind == "id"
            and stmt[-1].text in ("public", "private", "protected")
        ):
            stmt = []
            i += 1
            continue
        stmt.append(t)
        i += 1
    if stmt:
        yield stmt


def _check_missing_lock_annotation(tokens: List[Token]) -> List[RuleFinding]:
    out = []
    for cls, b0, b1 in _class_bodies(tokens):
        members = list(_member_statements(tokens, b0, b1))
        mutex_names = []
        for stmt in members:
            if _is_mutex_statement(stmt):
                ids = [t.text for t in stmt if t.kind == "id"]
                if ids:
                    mutex_names.append(ids[-1])
        if not mutex_names:
            continue
        for stmt in members:
            if _is_mutex_statement(stmt):
                continue
            texts = [t.text for t in stmt]
            if any(x in _FIELD_EXEMPT_IDS for x in texts):
                continue
            if texts and texts[0] == "const":
                continue  # immutable after construction: no lock needed
            # A field has no top-level parens (calls/methods) outside
            # template args and no '{}' body marker before any '='.
            if _looks_like_method_or_alias(stmt):
                continue
            name = _field_name(stmt)
            if name is None:
                continue
            out.append(RuleFinding(
                stmt[0].line,
                f"field '{name}' of class '{cls}' shares the class with "
                f"mutex '{mutex_names[0]}' but carries no LL_GUARDED_BY / "
                "LL_PT_GUARDED_BY annotation (atomic, const, or annotate)"))
    return out


def _looks_like_method_or_alias(stmt: Sequence[Token]) -> bool:
    angle = 0
    for t in stmt:
        if t.kind != "op":
            continue
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle = max(0, angle - 1)
        elif t.text == ">>":
            angle = max(0, angle - 2)
        elif t.text == "(" and angle == 0:
            return True
        elif t.text == "{}" and angle == 0:
            return True
        elif t.text == "=" and angle == 0:
            return False  # default member initializer: field
    return False


def _field_name(stmt: Sequence[Token]) -> Optional[str]:
    """Last identifier before '=', '[' or end of statement."""
    name = None
    angle = 0
    for t in stmt:
        if t.kind == "op":
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == ">>":
                angle = max(0, angle - 2)
            elif angle == 0 and t.text in ("=", "["):
                break
        elif t.kind == "id" and angle == 0:
            name = t.text
    return name


# --- registry ---------------------------------------------------------------

DETERMINISM_RULES = [
    Rule("wall-clock", _everywhere, _check_wall_clock,
         "Any real-time source; virtual time comes from Simulator::now()."),
    Rule("raw-rand", _everywhere, _check_raw_rand,
         "rand()/std::mt19937/std::random_device; use util/Rng."),
    Rule("unordered-iteration", _everywhere, _check_unordered_iteration,
         "Range-for over a std::unordered_* container."),
    Rule("unordered-in-report", _order_sensitive, _check_unordered_in_report,
         "std::unordered_* anywhere in an output-producing layer."),
    Rule("pointer-keyed-map", _everywhere, _check_pointer_keyed_map,
         "std::map/set keyed by a raw pointer iterates in allocation order."),
    Rule("uninitialized-pod", _everywhere, _check_uninitialized_pod,
         "POD member/variable declaration without an initializer."),
    Rule("direct-io", _sink_enforced, _check_direct_io,
         "printf/std::cout in transport/link layers; use obs:: sinks."),
]

SEMANTIC_RULES = [
    Rule("narrowing-time-arith", _everywhere, _check_narrowing_time_arith,
         "Truncating or sign-mixing casts on *_us/*_ms/.count()/packet-"
         "number expressions."),
    Rule("container-mutation-in-loop", _everywhere,
         _check_container_mutation,
         "erase/insert/push_back on the container being range-for iterated."),
    Rule("missing-lock-annotation", _everywhere,
         _check_missing_lock_annotation,
         "Class has a mutex member but fields without LL_GUARDED_BY."),
    Rule("wall-clock-outside-obs", _sim_layer, _check_wall_clock_outside_obs,
         "steady_clock/system_clock read inside src/{quic,tcp,cc,net,sim}; "
         "obs/harness/bench are exempt."),
]

ALL_RULES = DETERMINISM_RULES + SEMANTIC_RULES
RULES_BY_NAME: Dict[str, Rule] = {r.name: r for r in ALL_RULES}
