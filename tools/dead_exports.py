#!/usr/bin/env python3
"""List the values a library interface exports that nothing ships calls.

For every `val` in `lib/**/*.mli` the scan looks for a caller in the
`.ml` files under lib/, bin/, bench/, perfbench/ and examples/, other
than the module's own `.ml`. Tests are not callers: a value only a test
reaches is dead surface.

Comments, string literals and character literals are stripped before
searching, and a name counts as called only where it is written
`Module.name` (the module may be reached through `module X = ...`
aliases), or written bare in a file that opens or includes the module
(`open M`, `include M`, `let open M in`, `M.( ... )`). A value declared
in a submodule (`module Ticket : sig ... end`) is reached as
`Ticket.name`. Values declared in a `module type` are scanned under each
module the same interface gives that signature; a signature with no
such module (a first-class module type) is not scanned.

A submodule named `Private` is the test-only surface of its module: the
oracles and observables a test needs that no shipped path reads. Its
values may be called from test/ alone, but they must be called from
somewhere.

Each value that must stay exported without a caller is listed in the
allowlist, one per line: `Module.name  reason`. The reason must name an
open item of ROADMAP.md ("item N"). An allowlist line whose value now
has a caller, or no longer exists, is an error too, so the list cannot
go stale.

Usage (from the repository root):

    python3 tools/dead_exports.py            # exit 1 on any finding
    python3 tools/dead_exports.py --all      # list every uncalled value,
                                             # allowlisted or not
"""

import argparse
import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
TEST_DIRS = ["test"]
ALLOWLIST = os.path.join("tools", "dead_exports.allow")
ROADMAP = "ROADMAP.md"

IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
UIDENT = r"[A-Z][A-Za-z0-9_']*"
LIDENT = r"[a-z_][A-Za-z0-9_']*"


def strip(src):
    """Blank out comments, strings and character literals, keeping
    newlines so that line numbers survive."""
    out = []
    i, n = 0, len(src)
    depth = 0

    def skip_string(i):
        # src[i] == '"'; return the index after the closing quote.
        i += 1
        while i < n and src[i] != '"':
            i += 2 if src[i] == "\\" else 1
        return i + 1

    def quoted_string(i):
        # {id|...|id}; return the index after it, or None.
        m = re.match(r"\{([a-z_]*)\|", src[i:])
        if not m:
            return None
        close = "|" + m.group(1) + "}"
        j = src.find(close, i + m.end())
        return n if j < 0 else j + len(close)

    def char_literal(i):
        # src[i] == "'"; return the index after a char literal, or None
        # when the quote starts a type variable or follows an identifier.
        if i + 1 < n and src[i + 1] == "\\":
            j = src.find("'", i + 3)
            return None if j < 0 or j - i > 6 else j + 1
        if i + 2 < n and src[i + 2] == "'" and src[i + 1] != "\n":
            return i + 3
        return None

    def blank(a, b):
        out.append("".join(c if c == "\n" else " " for c in src[a:b]))

    while i < n:
        c = src[i]
        if src.startswith("(*", i) and not src.startswith("(*)", i):
            depth += 1
            blank(i, i + 2)
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                blank(i, i + 2)
                i += 2
            elif c == '"':
                j = skip_string(i)
                blank(i, j)
                i = j
            elif c == "{" and quoted_string(i) is not None:
                j = quoted_string(i)
                blank(i, j)
                i = j
            else:
                blank(i, i + 1)
                i += 1
            continue
        if c == '"':
            j = skip_string(i)
            out.append(" ")
            blank(i + 1, j)
            i = j
            continue
        if c == "{":
            j = quoted_string(i)
            if j is not None:
                out.append(" ")
                blank(i + 1, j)
                i = j
                continue
        if c == "'" and not (i > 0 and re.match(r"[A-Za-z0-9_]", src[i - 1])):
            j = char_literal(i)
            if j is not None:
                blank(i, j)
                i = j
                continue
        out.append(c)
        i += 1
    return "".join(out)


def module_of_path(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[:1].upper() + base[1:]


def interface_values(path):
    """(qualified name, line) of every value an .mli exports."""
    text = strip(open(path).read())
    top = module_of_path(path)
    tokens = [
        (m.group(0), text.count("\n", 0, m.start()) + 1)
        for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_']*|\(|\)|:|=", text)
    ]
    # Block stack: ("mod", name) for `module X : sig`, ("mty", name) for
    # `module type X = sig`, ("other", None) for any other sig/object.
    stack = []
    sigs = {}  # module type name -> [(value, line)]
    bindings = []  # (module name, module type name, enclosing path)
    found = []
    k = 0
    while k < len(tokens):
        tok, line = tokens[k]
        nxt = [t for t, _ in tokens[k + 1 : k + 6]]
        if tok == "module" and nxt[:1] == ["type"] and nxt[2:4] == ["=", "sig"]:
            stack.append(("mty", nxt[1]))
            sigs[nxt[1]] = []
            k += 5
            continue
        if tok == "module" and len(nxt) >= 3 and nxt[1] == ":":
            if nxt[2] == "sig":
                stack.append(("mod", nxt[0]))
                k += 4
                continue
            if re.fullmatch(UIDENT, nxt[2]):
                path_now = [n for kind, n in stack if kind == "mod"]
                bindings.append((nxt[0], nxt[2], path_now))
        if tok in ("sig", "object"):
            stack.append(("other", None))
        elif tok == "end" and stack:
            stack.pop()
        elif tok == "val":
            name = nxt[0] if nxt else ""
            if nxt[:1] == ["("]:
                name = ""  # operators are not scanned
            if re.fullmatch(LIDENT, name):
                kinds = [kind for kind, _ in stack]
                if "mty" in kinds:
                    sigs[[n for kd, n in stack if kd == "mty"][-1]].append(
                        (name, line)
                    )
                elif "other" not in kinds:
                    mods = [n for _, n in stack]
                    found.append((".".join([top] + mods + [name]), line))
        k += 1
    for mod, mty, enclosing in bindings:
        for name, line in sigs.get(mty, []):
            found.append((".".join([top] + enclosing + [mod, name]), line))
    return found


def caller_files(root, dirs):
    for d in dirs:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def references(path):
    """What a caller file reaches: (module, name) pairs written
    qualified, and the bare names it may reach through an open."""
    text = strip(open(path).read())
    alias = {}
    for m in re.finditer(
        r"\bmodule\s+(%s)\s*=\s*((?:%s\s*\.\s*)*)(%s)\b(?!\s*\()"
        % (UIDENT, UIDENT, UIDENT),
        text,
    ):
        alias[m.group(1)] = m.group(3)

    def resolve(mod):
        seen = set()
        while mod in alias and mod not in seen:
            seen.add(mod)
            mod = alias[mod]
        return mod

    qualified = set()
    for m in re.finditer(r"\b(%s)\s*\.\s*(%s)" % (UIDENT, LIDENT), text):
        qualified.add((m.group(1), m.group(2)))
        qualified.add((resolve(m.group(1)), m.group(2)))
    opened = set()
    for m in re.finditer(
        r"\b(?:open!?|include)\s+((?:%s\s*\.\s*)*%s)" % (UIDENT, UIDENT), text
    ):
        last = re.split(r"\s*\.\s*", m.group(1))[-1]
        opened.add(last)
        opened.add(resolve(last))
    for m in re.finditer(r"\b(%s)\s*\.\s*[\(\[\{]" % UIDENT, text):
        opened.add(m.group(1))
        opened.add(resolve(m.group(1)))
    bare = set(re.findall(IDENT, text))
    return qualified, opened, bare


def scan(root):
    interfaces = []
    for dirpath, dirnames, files in os.walk(os.path.join(root, "lib")):
        dirnames[:] = [x for x in dirnames if x != "_build"]
        for f in sorted(files):
            if f.endswith(".mli"):
                interfaces.append(os.path.join(dirpath, f))
    callers = {p: references(p) for p in caller_files(root, CALLER_DIRS)}
    tests = {p: references(p) for p in caller_files(root, TEST_DIRS)}
    dead = []
    for mli in sorted(interfaces):
        own = mli[:-1]
        for qname, line in interface_values(mli):
            parts = qname.split(".")
            name, owner = parts[-1], parts[-2]
            called = False
            reach = callers
            if "Private" in parts[:-1]:
                reach = dict(callers, **tests)
            for path, (qualified, opened, bare) in reach.items():
                if path == own:
                    continue
                if (owner, name) in qualified or (
                    owner in opened and name in bare
                ):
                    called = True
                    break
            if not called:
                dead.append((qname, os.path.relpath(mli, root), line))
    return dead


def read_allowlist(root):
    allowed = {}
    path = os.path.join(root, ALLOWLIST)
    if not os.path.exists(path):
        return allowed, []
    errors = []
    items = open_items(root)
    for k, raw in enumerate(open(path), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        where = "%s:%d" % (ALLOWLIST, k)
        if len(parts) < 2:
            errors.append("%s: %s has no reason" % (where, parts[0]))
            continue
        named = [int(x) for x in re.findall(r"\bitem (\d+)\b", parts[1])]
        if not named:
            errors.append("%s: the reason must name a ROADMAP item" % where)
        for n in named:
            if n not in items:
                errors.append("%s: ROADMAP.md has no open item %d" % (where, n))
        allowed[parts[0]] = where
    return allowed, errors


def open_items(root):
    """The numbers of ROADMAP.md's open items."""
    try:
        text = open(os.path.join(root, ROADMAP)).read()
    except OSError:
        return set()
    section = text.split("## Open items", 1)[-1].split("\n## ", 1)[0]
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", section, re.M)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=".")
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    dead = scan(args.root)
    if args.all:
        for qname, mli, line in dead:
            print("%s:%d: %s" % (mli, line, qname))
        print("%d exported values with no caller" % len(dead))
        return 0
    allowed, errors = read_allowlist(args.root)
    dead_names = {q for q, _, _ in dead}
    for qname, mli, line in dead:
        if "Private" in qname.split("."):
            errors.append(
                "%s:%d: %s has no caller, tests included; delete it"
                % (mli, line, qname)
            )
        elif qname not in allowed:
            errors.append(
                "%s:%d: %s has no caller outside tests; delete it, drop it "
                "from the interface, move a test-only oracle into the "
                "module's Private submodule, or list it in %s with its "
                "reason" % (mli, line, qname, ALLOWLIST)
            )
    for qname, where in sorted(allowed.items()):
        if qname not in dead_names:
            errors.append(
                "%s: %s is called or gone; drop its line" % (where, qname)
            )
    for e in errors:
        print(e)
    if errors:
        return 1
    print("dead_exports: %d allowlisted, none new" % len(allowed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
