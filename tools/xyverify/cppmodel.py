"""Per-TU model construction: includes, classes, functions, lock scopes.

One pass over the token stream of every file builds:

  * the include list (for the layering pass),
  * a class table (qualified class name -> member name -> type text,
    plus function-local classes being rare enough to ignore),
  * a function table: every function DEFINITION with its qualified name,
    return type, the lock-acquisition scopes in its body, the nesting
    edges between them, and every call site with the locks held there.

The model is flow-insensitive inside a scope (an acquisition covers its
enclosing brace scope; loops are traversed once) and resolves names
structurally, not semantically.  The documented approximations
(DESIGN.md §3.16): lambda bodies are analyzed inline at their definition
site; calls resolve by receiver type when a local/member/param
declaration gives one, else by globally-unique last name; template and
overload sets collapse onto one name; lock identity is the declaring
class member (all instances of a class share a node), a function-local
variable, or the accessor function for function-static lock families.
"""

import re

from .lexer import lex

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "new", "delete", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "throw", "co_await", "co_return", "co_yield",
    "assert", "decltype", "noexcept", "alignas", "defined",
}

_TYPE_SPECIFIERS = {
    "const", "constexpr", "constinit", "consteval", "static", "inline",
    "virtual", "explicit", "mutable", "friend", "typename", "volatile",
    "extern", "register", "thread_local", "auto",
}

_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')


class ClassInfo:
    def __init__(self, qual):
        self.qual = qual              # e.g. "Warehouse::Document"
        self.members = {}             # member name -> type text


class LockScope:
    __slots__ = ("lock_id", "line", "depth", "manual")

    def __init__(self, lock_id, line, depth, manual):
        self.lock_id = lock_id
        self.line = line
        self.depth = depth
        self.manual = manual


class CallSite:
    __slots__ = ("held", "receiver_type", "name", "line", "qualified")

    def __init__(self, held, receiver_type, name, line, qualified=False):
        self.held = held              # [(lock_id, acquire_line)]
        self.receiver_type = receiver_type
        self.name = name
        self.line = line
        self.qualified = qualified    # Written as `Scope::name(...)`.


class DeclInfo:
    """A function declaration or definition head (for the arena pass)."""

    __slots__ = ("owner", "name", "ret_type", "annotations", "line", "rel")

    def __init__(self, owner, name, ret_type, annotations, line, rel):
        self.owner = owner            # enclosing class qual ("" for free)
        self.name = name
        self.ret_type = ret_type      # type text, specifiers stripped
        self.annotations = annotations  # set of XY_* idents on the decl
        self.line = line
        self.rel = rel


class FunctionInfo:
    def __init__(self, qual, rel, line):
        self.qual = qual              # e.g. "Warehouse::DiffBatch"
        self.rel = rel
        self.line = line
        self.ret_type = ""
        self.direct_locks = []        # [(lock_id, line)]
        self.nested = []              # [(outer_id, inner_id, o_line, i_line)]
        self.reacquired = []          # [(lock_id, first_line, again_line)]
        self.calls = []               # [CallSite]
        self.locals = {}              # var name -> type text


class TUModel:
    def __init__(self, rel):
        self.rel = rel
        self.includes = []            # [(target, line)]
        self.classes = {}             # qual -> ClassInfo
        self.functions = []           # [FunctionInfo]
        self.decls = []               # [DeclInfo]


def _matching(tokens, i, open_t, close_t):
    """Index of the token closing the bracket opened at i (or len)."""
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


def _rmatching(tokens, i, open_t, close_t):
    """Index of the token opening the bracket closed at i (or -1)."""
    depth = 0
    for j in range(i, -1, -1):
        t = tokens[j].text
        if t == close_t:
            depth += 1
        elif t == open_t:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _type_text(tokens):
    return " ".join(t.text for t in tokens)


class _Scope:
    """One brace scope: namespace / class / function body / plain block."""

    def __init__(self, kind, name=""):
        self.kind = kind              # namespace | class | function | block
        self.name = name


def parse_file(path, rel, text=None):
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    tokens = lex(text)
    model = TUModel(rel)
    for t in tokens:
        if t.kind == "directive":
            m = _INCLUDE_RE.match(t.text)
            if m:
                model.includes.append((m.group(1), t.line))
    _Parser(model, tokens, rel).run()
    return model


class _Parser:
    def __init__(self, model, tokens, rel):
        self.model = model
        self.tokens = tokens
        self.rel = rel
        self.scopes = []              # _Scope stack, one per open `{`
        self.fn = None                # current FunctionInfo (innermost)
        self.fn_depth = -1            # scope depth where current fn began
        self.open_locks = []          # LockScope stack (current function)

    # ---- context helpers -------------------------------------------------

    def class_context(self):
        return [s.name for s in self.scopes if s.kind == "class"]

    def namespace_context(self):
        return [s.name for s in self.scopes if s.kind == "namespace" and s.name]

    def current_class_qual(self):
        ctx = self.class_context()
        return "::".join(ctx) if ctx else ""

    def in_local_class(self):
        """True when the innermost scopes include a class defined inside
        the current function (its body is member territory, not
        statements of the function)."""
        for s in self.scopes[self.fn_depth + 1:]:
            if s.kind == "class":
                return True
        return False

    # ---- main loop -------------------------------------------------------

    def run(self):
        tokens = self.tokens
        i = 0
        while i < len(tokens):
            t = tokens[i]
            if t.kind == "directive":
                i += 1
                continue
            if t.text == "{":
                i = self.open_brace(i)
                continue
            if t.text == "}":
                self.close_brace()
                i += 1
                continue
            if self.fn is not None and not self.in_local_class():
                i = self.in_function_token(i)
                continue
            i = self.at_decl_scope_token(i)

    # ---- scope transitions ----------------------------------------------

    def open_brace(self, i):
        """Classifies the `{` at i, pushes a scope, returns next index."""
        tokens = self.tokens
        kind, name = self.classify_brace(i)
        if kind == "skip":
            # Initializer / enum body — consume without entering.
            return _matching(tokens, i, "{", "}") + 1
        if kind == "function":
            if self.fn is not None:
                # A lambda inside a function: analyze inline, keep the
                # enclosing function as the model (approximation).
                self.scopes.append(_Scope("block"))
                return i + 1
            qual_parts = self.namespace_context() + self.class_context()
            qual = "::".join([p for p in qual_parts if p] + [name])
            self.fn = FunctionInfo(qual, self.rel, tokens[i].line)
            self.fn.ret_type, params = self.signature_parts(
                i, name.split("::")[-1])
            self.fn.locals.update(params)
            self.fn_depth = len(self.scopes)
            self.scopes.append(_Scope("function", name))
            self.register_function(self.fn)
            self.record_definition_decl(i, name)
            return i + 1
        self.scopes.append(_Scope(kind, name))
        return i + 1

    def close_brace(self):
        if not self.scopes:
            return
        depth = len(self.scopes) - 1
        # RAII locks die with their scope; manual lock() calls persist
        # until an explicit unlock() or the end of the function.
        self.open_locks = [s for s in self.open_locks
                           if s.manual or s.depth < depth]
        scope = self.scopes.pop()
        if scope.kind == "function" and len(self.scopes) == self.fn_depth:
            self.fn = None
            self.fn_depth = -1
            self.open_locks = []

    def classify_brace(self, i):
        """What does the `{` at i open?  -> (kind, name)"""
        tokens = self.tokens
        j = i - 1
        # Skip trailing decorations between ')' / class-head and '{'.
        while j >= 0:
            t = tokens[j]
            if t.text == ")":
                # An annotation macro call (`XY_REQUIRES(mu)`) is a
                # decoration, not the parameter list.
                op = _rmatching(tokens, j, "(", ")")
                if op > 0 and tokens[op - 1].kind == "ident" and \
                        tokens[op - 1].text.startswith("XY_"):
                    j = op - 2
                    continue
                break
            if t.text == "]":
                break
            if t.kind == "ident" and t.text in (
                    "const", "noexcept", "override", "final", "mutable",
                    "try") or t.text.startswith("XY_"):
                j -= 1
                continue
            if t.text == ":":  # ctor init list or class bases — scan on
                j -= 1
                continue
            break
        if j < 0:
            return "block", ""
        t = tokens[j]
        # `-> type {` trailing return: walk back over the type to ')'.
        k = j
        while k >= 0 and tokens[k].text not in (")", ";", "{", "}"):
            if tokens[k].text == "->":
                close = k - 1
                if close >= 0 and tokens[close].text == ")":
                    k = close
                    t = tokens[k]
                    j = k
                break
            k -= 1
        if t.text == ")":
            op = _rmatching(tokens, j, "(", ")")
            if op > 0 and tokens[op - 1].text == "]":
                return "function", "<lambda>"  # Captured-param lambda.
            # Walk back over a constructor initializer list:
            # `Ctor(args) : a_(x), b_(y) {` — each `name(…)` preceded by
            # `,` or `:` is an initializer, not the signature.
            guard = 0
            while (op > 1 and tokens[op - 1].kind == "ident" and
                   op - 2 >= 0 and tokens[op - 2].text in (",", ":") and
                   guard < 64):
                prev = op - 3
                if prev < 0 or tokens[prev].text not in (")", "}"):
                    break
                op = _rmatching(tokens, prev, "(" if tokens[prev].text == ")"
                                else "{", tokens[prev].text)
                guard += 1
            name_i = op - 1
            if name_i >= 0 and tokens[name_i].kind == "ident":
                name = tokens[name_i].text
                if name in ("if", "for", "while", "switch", "catch",
                            "return"):
                    return "block", ""
                if name_i >= 1 and tokens[name_i - 1].text == "~":
                    name = "~" + name
                    name_i -= 1
                # Prepend `Qual::` path for out-of-class definitions.
                while (name_i >= 2 and tokens[name_i - 1].text == "::" and
                       tokens[name_i - 2].kind == "ident"):
                    name = tokens[name_i - 2].text + "::" + name
                    name_i -= 2
                return "function", name
            return "block", ""
        if t.text == "]":
            return "function", "<lambda>"
        if t.kind == "ident":
            if t.text in ("else", "do", "try"):
                return "block", ""
            # class / struct / namespace / enum heads, walked back
            # (skipping balanced parens so `class XY_CAPABILITY("m") X {`
            # still finds the keyword).
            k = j
            while k >= 0 and tokens[k].text not in (";", "{", "}"):
                head = tokens[k].text
                if head == ")":
                    k = _rmatching(tokens, k, "(", ")") - 1
                    continue
                if head in ("class", "struct", "union"):
                    return "class", self.head_name(k)
                if head == "namespace":
                    return "namespace", self.head_name(k)
                if head == "enum":
                    return "skip", ""
                if head in ("case", "default"):
                    return "block", ""
                k -= 1
            return "skip", ""  # `Type name{...}` initializer or array init.
        if t.text == "=":
            return "skip", ""  # `= {...}` initializer.
        return "block", ""

    def head_name(self, k):
        """Name following a class/struct/namespace keyword at k."""
        tokens = self.tokens
        name = ""
        j = k + 1
        while j < len(tokens) and tokens[j].text not in ("{", ":", ";"):
            if tokens[j].kind == "ident" and not tokens[j].text.startswith(
                    ("XY_", "alignas", "final")):
                name = tokens[j].text
            j += 1
        return name

    def signature_parts(self, brace_i, fn_name):
        """Return-type text and param locals for the definition at brace_i."""
        tokens = self.tokens
        # Find the parameter list: last ')' before the brace decorations,
        # skipping over annotation macro calls (`XY_REQUIRES(mu)`).
        j = brace_i - 1
        while j >= 0:
            if tokens[j].text in (";", "{", "}"):
                return "", {}
            if tokens[j].text == ")":
                op = _rmatching(tokens, j, "(", ")")
                if op > 0 and tokens[op - 1].kind == "ident" and \
                        tokens[op - 1].text.startswith("XY_"):
                    j = op - 2
                    continue
                break
            j -= 1
        if j < 0:
            return "", {}
        close = j
        op = _rmatching(tokens, close, "(", ")")
        if op <= 0:
            return "", {}
        # Constructor init lists: `) : member(x), member{y} {` — the ')'
        # we found may belong to an initializer; walk back to the ')' that
        # is directly preceded by the function name's parameter list.
        name_i = op - 1
        guard = 0
        while name_i > 0 and (tokens[name_i].kind != "ident" or
                              tokens[name_i].text != fn_name) and guard < 64:
            close = _rmatching(tokens, op - 1, "(", ")") \
                if tokens[op - 1].text == ")" else -1
            if close <= 0:
                break
            op = _rmatching(tokens, close, "(", ")")
            name_i = op - 1
            guard += 1
        if op <= 0:
            return "", {}
        # Return type: tokens from the previous boundary to the name,
        # minus qualifier path (Class::) and specifiers.
        start = name_i
        while start > 0 and tokens[start - 1].text == "::":
            start -= 2  # skip `Qual ::`
        b = start - 1
        while b >= 0 and tokens[b].text not in (";", "}", "{", ":") and \
                tokens[b].kind != "directive":
            if tokens[b].text == ")":
                break
            if tokens[b].text in (">", ">>"):
                depth = 2 if tokens[b].text == ">>" else 1
                b -= 1
                while b >= 0 and depth > 0:
                    tb = tokens[b].text
                    if tb in (">", ">>"):
                        depth += 2 if tb == ">>" else 1
                    elif tb == "<":
                        depth -= 1
                    b -= 1
                continue
            b -= 1
        ret = [t.text for t in tokens[b + 1:start]
               if t.text not in _TYPE_SPECIFIERS]
        params = self.parse_params(op, close)
        return " ".join(ret), params

    def parse_params(self, op, close):
        """`Type name` pairs from a parameter list."""
        params = {}
        seg = []
        for t in self.tokens[op + 1:close]:
            if t.text == ",":
                self.param_from(seg, params)
                seg = []
            else:
                seg.append(t)
        self.param_from(seg, params)
        return params

    @staticmethod
    def param_from(seg, params):
        # Drop default arguments.
        for idx, t in enumerate(seg):
            if t.text == "=":
                seg = seg[:idx]
                break
        if len(seg) < 2 or seg[-1].kind != "ident":
            return
        name = seg[-1].text
        type_toks = [t.text for t in seg[:-1] if t.text not in _TYPE_SPECIFIERS]
        if type_toks:
            params[name] = " ".join(type_toks)

    def register_function(self, fn):
        self.model.functions.append(fn)

    def record_definition_decl(self, brace_i, name):
        """DeclInfo for an inline/out-of-line definition (arena pass)."""
        tokens = self.tokens
        annos = set()
        j = brace_i - 1
        while j >= 0:
            if tokens[j].text == ")":
                # An annotation macro call (`XY_ARENA_BOUND("doc")`) sits
                # between the parameter list and the brace; record it and
                # keep scanning. Any other ')' is the parameter list.
                op = _rmatching(tokens, j, "(", ")")
                if op > 0 and tokens[op - 1].kind == "ident" and \
                        tokens[op - 1].text.startswith("XY_"):
                    annos.add(tokens[op - 1].text)
                    j = op - 2
                    continue
                break
            if tokens[j].kind == "ident" and tokens[j].text.startswith("XY_"):
                annos.add(tokens[j].text)
            if tokens[j].text in (";", "{", "}"):
                break
            j -= 1
        last = name.split("::")[-1]
        owner_parts = self.class_context() + name.split("::")[:-1]
        self.model.decls.append(DeclInfo(
            "::".join(owner_parts), last, self.fn.ret_type, annos,
            tokens[brace_i].line, self.rel))

    # ---- class (and namespace) scope ------------------------------------

    def at_decl_scope_token(self, i):
        """Handles one token at class/namespace scope (not in a function)."""
        tokens = self.tokens
        in_class = any(s.kind == "class" for s in self.scopes)
        # Collect one declaration: from here to `;` at this depth, unless
        # a `{` turns it into a definition (handled by braces).
        t = tokens[i]
        if t.text == ";":
            return i + 1
        start = i
        j = i
        while j < len(tokens) and tokens[j].text not in (";", "{", "}"):
            if tokens[j].text == "(":
                j = _matching(tokens, j, "(", ")")
            elif tokens[j].text == "<":
                # Balanced template args (best effort; `<` as less-than
                # does not appear in member declarations).
                j = self.skip_angles(j)
            j += 1
        if j >= len(tokens) or tokens[j].text != ";":
            return j  # Let run() classify the `{`.
        seg = self.strip_access_labels(tokens[start:j])
        if any(t2.text == "(" for t2 in seg):
            self.function_decl_from(seg)
        elif in_class:
            self.member_from(seg)
        return j + 1

    @staticmethod
    def strip_access_labels(seg):
        while (len(seg) >= 2 and seg[0].kind == "ident" and
               seg[0].text in ("public", "private", "protected") and
               seg[1].text == ":"):
            seg = seg[2:]
        return seg

    def function_decl_from(self, seg):
        """DeclInfo for a `Ret name(args) quals XY_*(..);` declaration."""
        if not seg:
            return
        if seg[0].kind == "ident" and seg[0].text in (
                "using", "typedef", "friend", "template", "static_assert",
                "operator"):
            return
        # Name: the ident directly before the first top-level '('.
        paren = next((k for k, t in enumerate(seg) if t.text == "("), -1)
        if paren <= 0 or seg[paren - 1].kind != "ident":
            return
        name = seg[paren - 1].text
        if name == "operator" or name in _KEYWORDS:
            return
        start = paren - 1
        while start >= 2 and seg[start - 1].text == "::":
            start -= 2
        ret = [t.text for t in seg[:start]
               if t.text not in _TYPE_SPECIFIERS and
               not t.text.startswith("XY_")]
        close = _matching(seg, paren, "(", ")")
        annos = {t.text for t in seg[close:] if t.kind == "ident" and
                 t.text.startswith("XY_")}
        if not ret:
            return  # Constructors / conversion operators.
        self.model.decls.append(DeclInfo(
            "::".join(self.class_context()), name, " ".join(ret), annos,
            seg[0].line, self.rel))

    def skip_angles(self, i):
        depth = 0
        for j in range(i, len(self.tokens)):
            t = self.tokens[j].text
            if t == "<":
                depth += 1
            elif t in (">", ">>"):
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    return j
            elif t in (";", "{", "}"):
                return i  # Not a template argument list after all.
        return i

    def member_from(self, seg):
        """Records `Type name;`-shaped members of the innermost class."""
        toks = list(seg)
        if not toks:
            return
        if toks[0].kind == "ident" and toks[0].text in (
                "public", "private", "protected", "using", "typedef",
                "friend", "template", "static_assert", "enum"):
            return
        # Strip initializers, then trailing annotation macro calls
        # (`XY_GUARDED_BY(m)` and friends).
        for idx, t in enumerate(toks):
            if t.text == "=":
                toks = toks[:idx]
                break
        while toks and toks[-1].text == ")":
            op = _rmatching(toks, len(toks) - 1, "(", ")")
            if op <= 0 or toks[op - 1].kind != "ident":
                return
            macro = toks[op - 1].text
            if macro.startswith("XY_") or macro.isupper():
                toks = toks[:op - 1]
                continue
            return  # `name(args)` — a declaration, not a data member.
        if any(t.text == "(" for t in toks):
            return  # Function declaration shapes.
        if len(toks) < 2 or toks[-1].kind != "ident":
            return
        name = toks[-1].text
        type_toks = [t.text for t in toks[:-1]
                     if t.text not in _TYPE_SPECIFIERS]
        if not type_toks:
            return
        qual = "::".join(self.class_context())
        info = self.model.classes.setdefault(qual, ClassInfo(qual))
        info.members[name] = " ".join(type_toks)

    # ---- function bodies -------------------------------------------------

    def in_function_token(self, i):
        tokens = self.tokens
        t = tokens[i]
        if t.text == "[":
            return self.maybe_structured_binding(i)
        if t.kind != "ident":
            return i + 1
        # Local declaration `Type name(...)` / `Type* name = ...` /
        # range-for `for (Type& x : c)`.
        self.maybe_local_decl(i)
        # Scoped lock construction: `MutexLock name(expr);`
        if t.text in ("MutexLock", "WriterMutexLock", "ReaderMutexLock"):
            return self.scoped_lock(i)
        # Manual lock()/unlock().
        if t.text in ("lock", "lock_shared") and self.is_method_call(i):
            expr = self.receiver_expr(i)
            if expr:
                self.acquire(expr, tokens[i].line, manual=True)
            return self.skip_call(i)
        if t.text in ("unlock", "unlock_shared") and self.is_method_call(i):
            expr = self.receiver_expr(i)
            if expr:
                self.release(expr)
            return self.skip_call(i)
        # Plain call site.
        if (i + 1 < len(tokens) and tokens[i + 1].text == "(" and
                t.text not in _KEYWORDS and not t.text.startswith("XY_")):
            receiver = None
            if i >= 1 and tokens[i - 1].text in (".", "->"):
                rexpr = self.receiver_expr(i)
                receiver = rexpr
            qualified = i >= 1 and tokens[i - 1].text == "::"
            self.fn.calls.append(CallSite(
                [(s.lock_id, s.line) for s in self.open_locks],
                receiver, t.text, t.line, qualified))
        return i + 1

    def is_method_call(self, i):
        tokens = self.tokens
        return (i + 1 < len(tokens) and tokens[i + 1].text == "(" and
                i >= 1 and tokens[i - 1].text in (".", "->"))

    def receiver_expr(self, i):
        """Postfix expression tokens feeding the `.`/`->` before i."""
        tokens = self.tokens
        j = i - 2  # skip the access operator
        parts = []
        need_primary = True
        while j >= 0:
            t = tokens[j]
            if t.text in (")", "]") and need_primary:
                op = _rmatching(tokens, j, "(" if t.text == ")" else "[",
                                t.text)
                if op < 0:
                    break
                parts[:0] = tokens[op:j + 1]
                j = op - 1
                # A callee / array name may precede the bracket group.
                if j >= 0 and tokens[j].kind == "ident":
                    parts.insert(0, tokens[j])
                    j -= 1
                need_primary = False
                continue
            if t.kind == "ident" and need_primary:
                parts.insert(0, t)
                j -= 1
                need_primary = False
                continue
            if t.text in (".", "->", "::") and not need_primary:
                parts.insert(0, t)
                j -= 1
                need_primary = True
                continue
            break
        return parts if parts and not need_primary else []

    def scoped_lock(self, i):
        tokens = self.tokens
        j = i + 1
        if j < len(tokens) and tokens[j].kind == "ident":
            j += 1  # variable name
        if j >= len(tokens) or tokens[j].text not in ("(", "{"):
            return i + 1
        close = _matching(tokens, j, tokens[j].text,
                          ")" if tokens[j].text == "(" else "}")
        expr = tokens[j + 1:close]
        self.acquire(expr, tokens[i].line, manual=False)
        return close + 1

    def skip_call(self, i):
        tokens = self.tokens
        if i + 1 < len(tokens) and tokens[i + 1].text == "(":
            return _matching(tokens, i + 1, "(", ")") + 1
        return i + 1

    def maybe_local_decl(self, i):
        """Records `Type [*&] name` local declarations (heuristic)."""
        tokens = self.tokens
        t = tokens[i]
        # Pattern anchored at a type-name ident that starts a statement or
        # follows `(`/`,`/`for (` — approximated by: previous token is one
        # of ; { } ( , and next tokens form  [::ident|<...>|*|&]* ident
        # followed by = ( { ; : .
        if i > 0 and tokens[i - 1].text not in (";", "{", "}", "(", ",",
                                                "const"):
            return
        j = i
        type_toks = []
        while j < len(tokens):
            tt = tokens[j]
            if tt.kind == "ident" or tt.text in ("::", "*", "&", "const"):
                type_toks.append(tt)
                j += 1
                continue
            if tt.text == "<":
                k = self.skip_angles(j)
                if k == j:
                    return
                type_toks.extend(tokens[j:k + 1])
                j = k + 1
                continue
            break
        if j >= len(tokens) or len(type_toks) < 2:
            return
        if tokens[j].text not in ("=", "(", "{", ";", ":"):
            return
        name_tok = type_toks[-1]
        if name_tok.kind != "ident" or name_tok.text in _KEYWORDS:
            return
        head = [x.text for x in type_toks[:-1] if x.text not in
                _TYPE_SPECIFIERS]
        if not head or head[-1] in ("::",):
            return
        if head[0] in _KEYWORDS or head[0] in ("return", "else"):
            return
        self.fn.locals.setdefault(name_tok.text, " ".join(head))

    def maybe_structured_binding(self, i):
        """`auto& [a, b] : range` / `auto [a, b] = expr;` — records the
        bound names with a marker type the lock pass resolves from the
        initializer expression."""
        tokens = self.tokens
        if i > 0 and tokens[i - 1].kind in ("ident", "number") and \
                tokens[i - 1].text not in ("auto",):
            return i + 1  # Array subscript.
        if i > 0 and tokens[i - 1].text in (")", "]"):
            return i + 1
        names = []
        j = i + 1
        while j < len(tokens) and tokens[j].text != "]":
            if tokens[j].kind == "ident":
                names.append(tokens[j].text)
            elif tokens[j].text != ",":
                return i + 1  # Lambda capture with & / this / =.
            j += 1
        if not names or j + 1 >= len(tokens):
            return i + 1
        sep = tokens[j + 1].text
        if sep not in (":", "="):
            return i + 1
        # Initializer expression up to the statement/loop-head end.
        k = j + 2
        depth = 0
        expr = []
        while k < len(tokens):
            tt = tokens[k].text
            if tt in ("(", "[", "{"):
                depth += 1
            elif tt in (")", "]", "}"):
                if depth == 0:
                    break
                depth -= 1
            elif tt == ";" and depth == 0:
                break
            expr.append(tt)
            k += 1
        mode = "range" if sep == ":" else "init"
        for pos, name in enumerate(names):
            self.fn.locals.setdefault(
                name, "__binding {} {} {}".format(mode, pos, " ".join(expr)))
        return j + 1

    # ---- lock scope bookkeeping -----------------------------------------

    def acquire(self, expr_tokens, line, manual):
        lock_id = self.normalize_lock(expr_tokens)
        if lock_id is None:
            return
        # The innermost open scope's index; close_brace drops the lock
        # when that scope (or a shallower one) closes.
        depth = len(self.scopes) - 1
        for held in self.open_locks:
            if held.lock_id == lock_id:
                self.fn.reacquired.append(
                    (lock_id, held.line, line, held.manual or manual))
                break
            self.fn.nested.append((held.lock_id, lock_id, held.line, line,
                                   held.manual or manual))
        self.fn.direct_locks.append((lock_id, line))
        self.open_locks.append(LockScope(lock_id, line, depth, manual))

    def release(self, expr_tokens):
        lock_id = self.normalize_lock(expr_tokens)
        if lock_id is None:
            return
        for idx in range(len(self.open_locks) - 1, -1, -1):
            if self.open_locks[idx].lock_id == lock_id:
                del self.open_locks[idx]
                return

    def normalize_lock(self, expr_tokens):
        """Maps an acquisition expression to a stable lock identity.

        Resolution is finished later (cross-TU) — here we keep the raw
        expression plus the context needed to resolve it.
        """
        text = " ".join(t.text for t in expr_tokens).strip()
        if not text:
            return None
        # Identity ignores bracket/paren contents so `docs[g]->mutex`
        # and `docs[g - 1]->mutex` pair up across a multi-lock loop.
        norm, depth = [], 0
        for t in expr_tokens:
            if t.text in ("(", "["):
                depth += 1
                if depth == 1:
                    norm.append(t.text)
                continue
            if t.text in (")", "]"):
                depth -= 1
                if depth == 0:
                    norm.append(t.text)
                continue
            if depth == 0:
                norm.append(t.text)
        return _RawLock(text, " ".join(norm), self.fn, self.rel,
                        expr_tokens[0].line if expr_tokens else 0)


class _RawLock:
    """Unresolved lock expression; global analysis resolves it to an id."""

    __slots__ = ("text", "norm", "fn", "rel", "line")

    def __init__(self, text, norm, fn, rel, line):
        self.text = text
        self.norm = norm
        self.fn = fn
        self.rel = rel
        self.line = line

    def __eq__(self, other):
        return isinstance(other, _RawLock) and self.norm == other.norm and \
            self.fn is other.fn

    def __hash__(self):
        return hash((self.norm, id(self.fn)))
