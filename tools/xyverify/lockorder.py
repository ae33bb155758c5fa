"""Lock-order pass: build the global lock graph, reject cycles.

Lock identity (the graph nodes):

  * a mutex-typed class member  ->  "Class::member" — every instance of
    the class maps to ONE node (documented approximation; it can merge
    distinct instances, which is why ordered manual multi-lock protocols
    are exempted from the self-edge rule below),
  * a mutex-typed local         ->  "Function::name",
  * a function-static ShardedMutexMap family -> "file.cc::Accessor" —
    one node for the whole family (the map's own contract forbids
    holding two shards of one map).

Edges come from (1) an acquisition while another lock's scope is open in
the same function, and (2) a call made under a lock to a function whose
interprocedural closure acquires locks.  The closure is a fixpoint over
the call graph; calls resolve by receiver type when the receiver's
declaration is visible, an unqualified call inside a member function by
its own class's member of that name, else by globally-unique last name,
else they are ignored (documented approximation).

Self-edges where both acquisitions are RAII wrappers are reported as
lock-self-deadlock (non-recursive mutexes).  Manual lock()/unlock()
multi-lock protocols (which sort their targets first) are exempt.
"""

from .report import Finding

_SMART_PTRS = {"unique_ptr", "shared_ptr"}
_CONTAINERS = {"vector", "array", "deque", "span", "optional"}


class LockGraph:
    def __init__(self):
        self.edges = {}  # (a, b) -> witness list (first witness kept)

    def add(self, a, b, witness):
        self.edges.setdefault((a, b), witness)

    def nodes(self):
        out = set()
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out

    def cycles(self):
        """Strongly connected components with >1 node, plus self-loops."""
        adj = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, [])
        index, low, on_stack = {}, {}, set()
        stack, sccs, counter = [], [], [0]

        def strongconnect(v):
            work = [(v, 0)]
            while work:
                node, pi = work.pop()
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                for i in range(pi, len(adj[node])):
                    w = adj[node][i]
                    if w not in index:
                        work.append((node, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if recurse:
                    continue
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for v in sorted(adj):
            if v not in index:
                strongconnect(v)
        bad = [sorted(s) for s in sccs if len(s) > 1]
        bad += [[a] for a, b in self.edges if a == b]
        return bad


class LockAnalysis:
    def __init__(self, models, config):
        self.config = config
        self.classes = {}      # class key (no namespaces) -> {member: type}
        self.functions = []    # FunctionInfo outside lock-impl files
        self.by_last = {}      # last name -> [fn]
        self.by_suffix = {}    # "Class::name" -> [fn]
        self.decl_ret = {}     # "owner::name" and "name" -> set of ret types
        self.decl_rel = {}     # same keys -> defining file
        self.unresolved = []   # (rel, line, text) — for --stats
        for m in models:
            for qual, ci in m.classes.items():
                self.classes.setdefault(qual, {}).update(ci.members)
            for d in m.decls:
                owner_last = d.owner.split("::")[-1] if d.owner else ""
                for key in (("{}::{}".format(owner_last, d.name)
                             if owner_last else d.name), d.name):
                    self.decl_ret.setdefault(key, set()).add(d.ret_type)
                    self.decl_rel.setdefault(key, d.rel)
            if m.rel in config.lock_impl_files:
                continue
            for fn in m.functions:
                self.functions.append(fn)
                parts = fn.qual.split("::")
                self.by_last.setdefault(parts[-1], []).append(fn)
                if len(parts) >= 2:
                    self.by_suffix.setdefault(
                        "::".join(parts[-2:]), []).append(fn)

    # ---- type machinery --------------------------------------------------

    def owner_class(self, fn):
        parts = fn.qual.split("::")[:-1]
        for k in range(len(parts)):
            cand = "::".join(parts[k:])
            if cand in self.classes:
                return cand
        return ""

    def base_name(self, type_text):
        """Principal class name of a type: last ident of the leading
        qualified-name, template args and cv/ref/ptr stripped."""
        toks = [t for t in type_text.split() if t != "const"]
        name = ""
        i = 0
        while i < len(toks):
            t = toks[i]
            if t == "::":
                i += 1
                continue
            if t[0].isalpha() or t[0] == "_":
                name = t
                if i + 1 < len(toks) and toks[i + 1] == "::":
                    i += 2
                    continue
                break
            break
        return name

    def class_key_of(self, type_text, context_owner):
        """Resolves a type text to a class-table key, unwrapping one
        pointer / reference / smart-pointer level."""
        base = self.base_name(type_text)
        if base in _SMART_PTRS:
            inner = self.template_arg(type_text)
            if inner is None:
                return None
            base = self.base_name(inner)
        if not base:
            return None
        # Exact, context-qualified, then unique-suffix match.
        if base in self.classes:
            exact = base
        else:
            exact = None
        scoped = []
        ctx = context_owner.split("::") if context_owner else []
        for key in self.classes:
            if key == base or key.endswith("::" + base):
                scoped.append(key)
        if len(scoped) == 1:
            return scoped[0]
        for key in scoped:
            head = key.rsplit("::", 1)[0] if "::" in key else ""
            if head and head in ctx:
                return key
            if context_owner and key.startswith(context_owner + "::"):
                return key
        return exact

    @staticmethod
    def template_args(type_text):
        toks = type_text.split()
        try:
            start = toks.index("<") + 1
        except ValueError:
            return []
        depth, args, cur = 1, [], []
        for t in toks[start:]:
            if t == "<":
                depth += 1
            elif t in (">", ">>"):
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    break
            elif t == "," and depth == 1:
                args.append(" ".join(cur))
                cur = []
                continue
            cur.append(t)
        if cur:
            args.append(" ".join(cur))
        return args

    def template_arg(self, type_text):
        args = self.template_args(type_text)
        return args[0] if args else None

    def local_type(self, fn, name):
        """Declared type of a local, resolving structured bindings."""
        t = fn.locals.get(name)
        if t is None or not t.startswith("__binding "):
            return t
        _, mode, pos, expr = t.split(" ", 3)
        segs = self.split_postfix(expr.split())
        bound = self.type_of_chain(fn, segs) if segs else None
        if bound is None:
            return None
        if mode == "range":
            bound = self.element_type(bound)
        args = self.template_args(bound)
        if self.base_name(bound) in ("pair", "tuple") and \
                int(pos) < len(args):
            return args[int(pos)]
        return None

    def element_type(self, type_text):
        """Type after one [] / deref: container element or pointee."""
        base = self.base_name(type_text)
        if base in _CONTAINERS:
            return self.template_arg(type_text) or type_text
        toks = type_text.split()
        if toks and toks[-1] in ("*", "&"):
            return " ".join(toks[:-1])
        return type_text

    def ret_of(self, name, owner_last=None):
        keys = []
        if owner_last:
            keys.append("{}::{}".format(owner_last, name))
        keys.append(name)
        for key in keys:
            rets = {r for r in self.decl_ret.get(key, ()) if r}
            if not rets:
                continue
            # The declaration and the out-of-class definition may spell
            # the same type differently (`Document*` / `Warehouse::
            # Document*`); same base name means same type here.
            if len({self.base_name(r) for r in rets}) == 1:
                return sorted(rets, key=len)[-1], self.decl_rel.get(key, "")
            return None, ""
        return None, ""

    # ---- postfix expression resolution -----------------------------------

    @staticmethod
    def split_postfix(toks):
        segs, cur, depth = [], [], 0
        for t in toks:
            if t in ("(", "["):
                depth += 1
            elif t in (")", "]"):
                depth -= 1
            if t in (".", "->") and depth == 0:
                segs.append(cur)
                cur = []
            else:
                cur.append(t)
        segs.append(cur)
        return segs if all(segs) else None

    @staticmethod
    def parse_seg(seg):
        """-> (name, is_call, is_indexed) for one postfix segment."""
        toks = list(seg)
        # Strip a fully-parenthesized wrapper and leading * / &.
        while toks and toks[0] == "(" and toks[-1] == ")":
            depth = 0
            whole = True
            for i, t in enumerate(toks):
                if t == "(":
                    depth += 1
                elif t == ")":
                    depth -= 1
                    if depth == 0 and i != len(toks) - 1:
                        whole = False
                        break
            if not whole:
                break
            toks = toks[1:-1]
        while toks and toks[0] in ("*", "&"):
            toks = toks[1:]
        if not toks or not (toks[0][0].isalpha() or toks[0][0] == "_"):
            return None, False, False
        name = toks[0]
        is_call = len(toks) > 1 and toks[1] == "("
        is_indexed = "[" in toks
        return name, is_call, is_indexed

    def resolve_lock(self, fn, raw):
        """_RawLock -> stable lock id string, or None if not a mutex."""
        segs = self.split_postfix(raw.text.split())
        if not segs:
            return None
        owner = self.owner_class(fn)
        cur_type = None        # type text of the value so far
        family_id = None       # set when the chain passes a lock family
        id_owner = None        # class key the final member belongs to
        id_name = None         # final member/local name
        local_owner_fn = None
        for si, seg in enumerate(segs):
            name, is_call, is_indexed = self.parse_seg(seg)
            if name is None:
                return self.give_up(fn, raw)
            if si == 0:
                if name == "this":
                    cur_type = owner
                    continue
                if name in fn.locals and not is_call:
                    cur_type = self.local_type(fn, name)
                    if cur_type is None:
                        return self.give_up(fn, raw)
                    id_owner, id_name, local_owner_fn = None, name, fn
                elif is_call:
                    ret, rel = self.ret_of(name, owner.split("::")[-1]
                                           if owner else None)
                    if ret is None:
                        return self.give_up(fn, raw)
                    cur_type = ret
                    if "ShardedMutexMap" in ret:
                        family_id = "{}::{}".format(rel, name)
                    id_owner = id_name = None
                else:
                    found = None
                    probe = owner
                    while probe:
                        members = self.classes.get(probe, {})
                        if name in members:
                            found = (members[name], probe)
                            break
                        probe = probe.rsplit("::", 1)[0] \
                            if "::" in probe else ""
                    if found is None:
                        return self.give_up(fn, raw)
                    cur_type, id_owner = found
                    id_name, local_owner_fn = name, None
            else:
                if is_call:
                    if (name == "For" and cur_type and
                            "ShardedMutexMap" in cur_type):
                        cur_type = "Mutex"
                        continue
                    key = self.class_key_of(cur_type or "", owner)
                    ret, rel = self.ret_of(
                        name, key.split("::")[-1] if key else None)
                    if ret is None:
                        return self.give_up(fn, raw)
                    cur_type = ret
                    if "ShardedMutexMap" in ret:
                        family_id = "{}::{}".format(rel, name)
                    id_owner = id_name = None
                else:
                    key = self.class_key_of(cur_type or "", owner)
                    members = self.classes.get(key or "", {})
                    if name not in members:
                        return self.give_up(fn, raw)
                    cur_type = members[name]
                    id_owner, id_name, local_owner_fn = key, name, None
            if is_indexed:
                cur_type = self.element_type(cur_type or "")
        base = self.base_name(cur_type or "")
        if base not in self.config.mutex_types:
            return None  # Not a lockable — e.g. unlock() on a file handle.
        if family_id:
            return family_id
        if id_owner:
            return "{}::{}".format(id_owner, id_name)
        if local_owner_fn is not None and id_name:
            return "{}::{}".format(local_owner_fn.qual, id_name)
        return self.give_up(fn, raw)

    def give_up(self, fn, raw):
        self.unresolved.append((raw.rel, raw.line, raw.text))
        return None

    # ---- call resolution -------------------------------------------------

    def resolve_call(self, fn, cs):
        if cs.name in ("lock", "unlock", "lock_shared", "unlock_shared"):
            return None
        if cs.receiver_type:
            # A receiver-typed call resolves through the receiver's class
            # or not at all: falling back to name matching would bind
            # e.g. `cv_.Wait(mu)` to an unrelated `ThreadPool::Wait`.
            segs = self.split_postfix([t.text for t in cs.receiver_type])
            key = self.receiver_class(fn, segs)
            if not key:
                return None
            cands = self.by_suffix.get(
                "{}::{}".format(key.split("::")[-1], cs.name), [])
            if len(cands) == 1:
                return cands[0]
            return None
        owner = self.owner_class(fn)
        if owner and not cs.qualified:
            # An unqualified call inside a member function names a member
            # of its own class first (implicit `this->`), even when other
            # classes define a function of the same name.
            cands = self.by_suffix.get(
                "{}::{}".format(owner.split("::")[-1], cs.name), [])
            if len(cands) == 1:
                return cands[0]
        cands = self.by_last.get(cs.name, [])
        if len(cands) == 1:
            return cands[0]
        return None

    def receiver_class(self, fn, segs):
        """Class key of a receiver postfix chain, or None."""
        t = self.type_of_chain(fn, segs)
        if t is None:
            return None
        return self.class_key_of(t, self.owner_class(fn))

    def type_of_chain(self, fn, segs):
        """Type text of a postfix chain, or None."""
        if not segs:
            return None
        owner = self.owner_class(fn)
        cur_type = None
        for si, seg in enumerate(segs):
            name, is_call, is_indexed = self.parse_seg(seg)
            if name is None:
                return None
            if si == 0:
                if name == "this":
                    cur_type = owner
                elif name in fn.locals and not is_call:
                    cur_type = self.local_type(fn, name)
                    if cur_type is None:
                        return None
                elif is_call:
                    ret, _ = self.ret_of(name, owner.split("::")[-1]
                                         if owner else None)
                    if ret is None:
                        return None
                    cur_type = ret
                else:
                    probe = owner
                    cur_type = None
                    while probe:
                        members = self.classes.get(probe, {})
                        if name in members:
                            cur_type = members[name]
                            break
                        probe = probe.rsplit("::", 1)[0] \
                            if "::" in probe else ""
                    if cur_type is None:
                        return None
            else:
                key = self.class_key_of(cur_type or "", owner)
                members = self.classes.get(key or "", {})
                if is_call:
                    ret, _ = self.ret_of(
                        name, key.split("::")[-1] if key else None)
                    if ret is None:
                        return None
                    cur_type = ret
                elif name in members:
                    cur_type = members[name]
                else:
                    return None
            if is_indexed:
                cur_type = self.element_type(cur_type or "")
        return cur_type


def check_lock_order(models, config, dump=None):
    an = LockAnalysis(models, config)
    findings = []
    graph = LockGraph()
    resolved = {}   # id(raw) -> lock id or None

    def rid(raw):
        k = id(raw)
        if k not in resolved:
            resolved[k] = None
        return resolved[k]

    for fn in an.functions:
        for raw, _line in fn.direct_locks:
            resolved[id(raw)] = an.resolve_lock(fn, raw)

    # Intra-function nesting edges (and RAII self-deadlocks).
    for fn in an.functions:
        for outer, inner, o_line, i_line, any_manual in fn.nested:
            a, b = rid(outer), rid(inner)
            if a is None or b is None:
                continue
            if a == b:
                if not any_manual:
                    findings.append(Finding(
                        "lock-self-deadlock", fn.rel, i_line, fn.qual,
                        "{} re-acquires {} (held since line {}) with a "
                        "scoped lock; Mutex is non-recursive".format(
                            fn.qual, a, o_line)))
                continue
            graph.add(a, b, [
                "{}:{}: {} acquires {}".format(fn.rel, o_line, fn.qual, a),
                "{}:{}: ... then acquires {} while holding it".format(
                    fn.rel, i_line, b)])
        for lock, first, again, any_manual in fn.reacquired:
            a = rid(lock)
            if a is None or any_manual:
                continue
            findings.append(Finding(
                "lock-self-deadlock", fn.rel, again, fn.qual,
                "{} re-acquires {} (held since line {}) with a scoped "
                "lock; Mutex is non-recursive".format(fn.qual, a, first)))

    # Interprocedural closure: which locks does each function acquire,
    # directly or through calls?
    fid = {id(fn): fn for fn in an.functions}
    acquired = {}
    call_edges = {}
    for fn in an.functions:
        acquired[id(fn)] = {}
        for raw, line in fn.direct_locks:
            a = rid(raw)
            if a is not None:
                acquired[id(fn)].setdefault(a, ("direct", fn, line))
        call_edges[id(fn)] = []
        for cs in fn.calls:
            callee = an.resolve_call(fn, cs)
            if callee is not None and callee is not fn:
                call_edges[id(fn)].append((callee, cs))
    changed = True
    while changed:
        changed = False
        for fn in an.functions:
            mine = acquired[id(fn)]
            for callee, cs in call_edges[id(fn)]:
                for lock, _w in acquired[id(callee)].items():
                    if lock not in mine:
                        mine[lock] = ("via", callee, cs.line)
                        changed = True

    def witness_chain(start_fn, lock):
        chain = []
        fn = start_fn
        guard = 0
        while guard < 32:
            guard += 1
            kind = acquired[id(fn)].get(lock)
            if kind is None:
                break
            if kind[0] == "direct":
                chain.append("{}:{}: {} acquires {}".format(
                    fn.rel, kind[2], fn.qual, lock))
                break
            chain.append("{}:{}: {} calls {}".format(
                fn.rel, kind[2], fn.qual, kind[1].qual))
            fn = kind[1]
        return chain

    # Edges from calls made while holding locks.
    for fn in an.functions:
        for callee, cs in call_edges[id(fn)]:
            if not cs.held:
                continue
            inner_locks = acquired[id(callee)]
            if not inner_locks:
                continue
            for raw, h_line in cs.held:
                a = rid(raw)
                if a is None:
                    continue
                for b in inner_locks:
                    if b == a:
                        continue  # Instance merging makes a==b unreliable.
                    graph.add(a, b, [
                        "{}:{}: {} acquires {}".format(
                            fn.rel, h_line, fn.qual, a),
                        "{}:{}: ... then calls {} while holding it".format(
                            fn.rel, cs.line, callee.qual)]
                        + witness_chain(callee, b))

    for cycle in graph.cycles():
        witness = []
        nodes = set(cycle)
        for (a, b), w in sorted(graph.edges.items()):
            if a in nodes and b in nodes:
                witness.extend(w)
        anchor_rel, anchor_line = "src", 0
        if witness:
            head = witness[0].split(":", 2)
            if len(head) >= 2 and head[1].isdigit():
                anchor_rel, anchor_line = head[0], int(head[1])
        findings.append(Finding(
            "lock-order-cycle", anchor_rel, anchor_line,
            "+".join(sorted(nodes)),
            "lock-order cycle between {}; a consistent acquisition order "
            "is required".format(", ".join(sorted(nodes))), witness))

    if dump is not None:
        for (a, b), w in sorted(graph.edges.items()):
            dump.write("{} -> {}\n".format(a, b))
            for line in w:
                dump.write("    {}\n".format(line))
        if an.unresolved:
            dump.write("unresolved lock expressions:\n")
            for rel, line, text in an.unresolved:
                dump.write("    {}:{}: {}\n".format(rel, line, text))
    return findings, an
