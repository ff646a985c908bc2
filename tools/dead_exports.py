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

Two libraries may each have a module of one name (`Gkm_analytic.Wka_bkr`
and `Gkm_transport.Wka_bkr`). A reference is resolved to its library
through the library's wrapper (`Gkm_transport.Wka_bkr.deliver`), an
alias to it, the referring file's own library, or a library the file
opens; a module name only one library has needs none of these. Such
values are reported as `Gkm_transport.Wka_bkr.deliver`.

An optional argument `?l` of an exported value must be passed somewhere
as `~l` or `?l`: in a file outside the defining module that reaches the
value, tests included. One that nothing passes has one value in use and
should be a constant.

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
                                             # allowlisted or not, and every
                                             # optional argument never passed
"""

import argparse
import collections
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


ITEM = re.compile(r"\b(?:val|type|module|end|exception|include|external|class)\b")


def optional_labels(text, start):
    """The optional labels in the type of the `val` at [start]; the type
    runs to the next signature item."""
    colon = text.find(":", start)
    m = ITEM.search(text, colon + 1)
    decl = text[colon + 1 : m.start() if m else len(text)]
    return re.findall(r"\?\s*(%s)\s*:" % LIDENT, decl)


def interface_values(path):
    """(qualified name, line, optional labels) of every value an .mli
    exports."""
    text = strip(open(path).read())
    top = module_of_path(path)
    tokens = [
        (m.group(0), text.count("\n", 0, m.start()) + 1, m.start())
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
        tok, line, at = tokens[k]
        nxt = [t for t, _, _ in tokens[k + 1 : k + 6]]
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
                labels = optional_labels(text, at)
                if "mty" in kinds:
                    sigs[[n for kd, n in stack if kd == "mty"][-1]].append(
                        (name, line, labels)
                    )
                elif "other" not in kinds:
                    mods = [n for _, n in stack]
                    found.append((".".join([top] + mods + [name]), line, labels))
        k += 1
    for mod, mty, enclosing in bindings:
        for name, line, labels in sigs.get(mty, []):
            found.append((".".join([top] + enclosing + [mod, name]), line, labels))
    return found


def libraries(root):
    """{library wrapper module: (directory, {its modules})} for every
    library under lib/."""
    libs = {}
    for dirpath, dirnames, files in os.walk(os.path.join(root, "lib")):
        dirnames[:] = [x for x in dirnames if x != "_build"]
        if "dune" not in files:
            continue
        m = re.search(r"\(name\s+([a-z_][a-z0-9_]*)\)", open(os.path.join(dirpath, "dune")).read())
        if not m:
            continue
        mods = {module_of_path(f) for f in files if f.endswith((".ml", ".mli"))}
        libs[module_of_path(m.group(1))] = (os.path.normpath(dirpath), mods)
    return libs


def library_of_dir(libs, path):
    d = os.path.normpath(os.path.dirname(path))
    for lib, (ldir, _) in libs.items():
        if d == ldir:
            return lib
    return None


def caller_files(root, dirs):
    for d in dirs:
        for dirpath, dirnames, files in os.walk(os.path.join(root, d)):
            dirnames[:] = [x for x in dirnames if x != "_build"]
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def references(path, libs):
    """What a caller file reaches: (library, module, name) triples
    written qualified, the (library, module) pairs it opens, the bare
    names it may reach through an open, and the labels it passes. The
    library is None where the reference cannot be tied to one."""
    text = strip(open(path).read())
    own = library_of_dir(libs, path)
    alias = {}
    for m in re.finditer(
        r"\bmodule\s+(%s)\s*=\s*((?:%s\s*\.\s*)*%s)\b(?!\s*[.(])"
        % (UIDENT, UIDENT, UIDENT),
        text,
    ):
        alias[m.group(1)] = re.split(r"\s*\.\s*", m.group(2))
    opened_libs = set()
    for m in re.finditer(r"\b(?:open!?|include)\s+(%s)\b(?!\s*\.)" % UIDENT, text):
        if m.group(1) in libs:
            opened_libs.add(m.group(1))

    def resolve(parts):
        """(library or None, owning module) of a module path."""
        seen = set()
        while parts[0] in alias and parts[0] not in seen:
            seen.add(parts[0])
            parts = alias[parts[0]] + parts[1:]
        if parts[0] in libs:
            return (parts[0] if len(parts) > 1 else None), parts[-1]
        having = [lib for lib, (_, mods) in libs.items() if parts[0] in mods]
        if own in having:
            return own, parts[-1]
        for pool in ([lib for lib in having if lib in opened_libs], having):
            if len(pool) == 1:
                return pool[0], parts[-1]
        return None, parts[-1]

    qualified = set()
    for m in re.finditer(r"\b((?:%s\s*\.\s*)+)(%s)" % (UIDENT, LIDENT), text):
        parts = re.split(r"\s*\.\s*", m.group(1).rstrip(" \t\n."))
        lib, owner = resolve(parts)
        qualified.add((lib, owner, m.group(2)))
    opened = set()
    for m in re.finditer(
        r"\b(?:open!?|include)\s+((?:%s\s*\.\s*)*%s)" % (UIDENT, UIDENT), text
    ):
        opened.add(resolve(re.split(r"\s*\.\s*", m.group(1))))
    for m in re.finditer(r"\b((?:%s\s*\.\s*)*%s)\s*\.\s*[\(\[\{]" % (UIDENT, UIDENT), text):
        opened.add(resolve(re.split(r"\s*\.\s*", m.group(1))))
    bare = set(re.findall(IDENT, text))
    labels = set(re.findall(r"[~?](%s)" % LIDENT, text))
    return qualified, opened, bare, labels


def reaches(refs, lib, owner, name):
    """Does a file with these references reach [owner.name] of [lib]?"""
    qualified, opened, bare, _ = refs
    if any(lb in (None, lib) and o == owner and n == name for lb, o, n in qualified):
        return True
    return name in bare and any(lb in (None, lib) and o == owner for lb, o in opened)


def scan(root):
    """The dead exports, as (name, mli, line), and the optional
    arguments of live ones that nothing passes, as (name, label, mli,
    line)."""
    libs = libraries(root)
    interfaces = []
    for dirpath, dirnames, files in os.walk(os.path.join(root, "lib")):
        dirnames[:] = [x for x in dirnames if x != "_build"]
        for f in sorted(files):
            if f.endswith(".mli"):
                interfaces.append(os.path.join(dirpath, f))
    callers = {p: references(p, libs) for p in caller_files(root, CALLER_DIRS)}
    tests = {p: references(p, libs) for p in caller_files(root, TEST_DIRS)}
    everyone = dict(callers, **tests)
    homes = collections.Counter(m for _, mods in libs.values() for m in mods)
    dead, unpassed = [], []
    for mli in sorted(interfaces):
        own = mli[:-1]
        lib = library_of_dir(libs, mli)
        for qname, line, labels in interface_values(mli):
            parts = qname.split(".")
            shown = "%s.%s" % (lib, qname) if homes[parts[0]] > 1 else qname
            where = os.path.relpath(mli, root)
            users = [
                p
                for p, refs in everyone.items()
                if p != own and reaches(refs, lib, parts[-2], parts[-1])
            ]
            shipped = [p for p in users if p in callers]
            if not (users if "Private" in parts[:-1] else shipped):
                dead.append((shown, where, line))
                continue
            for label in labels:
                if not any(label in everyone[p][3] for p in users):
                    unpassed.append((shown, label, where, line))
    return dead, unpassed


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
    dead, unpassed = scan(args.root)
    if args.all:
        for qname, mli, line in dead:
            print("%s:%d: %s" % (mli, line, qname))
        for qname, label, mli, line in unpassed:
            print("%s:%d: %s ?%s" % (mli, line, qname, label))
        print(
            "%d exported values with no caller, %d optional arguments never "
            "passed" % (len(dead), len(unpassed))
        )
        return 0
    allowed, errors = read_allowlist(args.root)
    for qname, label, mli, line in unpassed:
        errors.append(
            "%s:%d: %s ?%s is never passed outside its module, tests "
            "included; make it a constant" % (mli, line, qname, label)
        )
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
