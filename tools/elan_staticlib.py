"""Shared infrastructure for the repo's static-analysis tools.

Both `tools/elan_lint` (regex/structural rules) and `tools/elan_analyze`
(semantic rules over a lexed token stream) import this module, so that:

  * comment/string stripping — including C++11 raw string literals, which a
    naive char scan corrupts — is implemented exactly once;
  * the `// elan-lint: allow(<rule>)` waiver syntax means the same thing to
    every tool (elan_analyze additionally accepts `// elan-analyze:` as the
    tag, so a waiver can name the tool it silences);
  * both tools emit the *same* machine-readable finding schema under
    `--format=json`, so CI consumes one artifact shape; and
  * "compile_commands.json is missing but required" is one error path with
    one exit code (2), not two slightly different ones.

Finding schema (--format=json)
------------------------------
    {
      "tool": "elan_analyze",
      "schema_version": 1,
      "repo_root": "/abs/path",
      "files_scanned": 123,
      "waived": 4,
      "findings": [
        {
          "file": "src/elan/job.cpp",     // repo-relative
          "line": 42,
          "column": 7,                     // 1-based; 0 = unknown
          "rule": "determinism",
          "message": "std::chrono::steady_clock::now() in ...",
          "fixit": "route timing through sim::Simulator::now() ..."
        }
      ]
    }

Waived findings are counted but not listed; `findings` holds only live
violations, so `exit 1 iff findings non-empty` holds for every consumer.
"""

import json
import os
import re

SCHEMA_VERSION = 1

# Matches both tags so a waiver can be addressed to the tool that fires:
#   // elan-lint: allow(naked-sync)      -- why it is safe here
#   // elan-analyze: allow(determinism)  -- why it is safe here
WAIVER_RE = re.compile(r"//\s*elan-(?:lint|analyze):\s*allow\(([a-z0-9\-,\s]+)\)")

_RAW_PREFIX_RE = re.compile(r'(?:u8|[uUL])?R$')


class Finding:
    """One rule violation. `file` is repo-relative; `line`/`column` 1-based."""

    __slots__ = ("file", "line", "column", "rule", "message", "fixit")

    def __init__(self, file, line, rule, message, column=0, fixit=""):
        self.file = file
        self.line = line
        self.column = column
        self.rule = rule
        self.message = message
        self.fixit = fixit

    def to_dict(self):
        return {
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "rule": self.rule,
            "message": self.message,
            "fixit": self.fixit,
        }

    def human(self):
        text = f"{self.file}:{self.line}: [{self.rule}] {self.message}"
        if self.fixit:
            text += f"\n    fix-it: {self.fixit}"
        return text


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal *contents* while preserving
    every offset and newline, so rule regexes and the lexer never match inside
    quoted text but reported lines stay true to the file.

    Handles, in particular, C++11 raw string literals R"delim( ... )delim"
    (with optional u8/u/U/L encoding prefix): their contents — which may hold
    unbalanced quotes, `//`, `/*`, or code-looking text — are blanked as one
    unit. The pre-fix char-by-char scan treated the `(` after the opening
    quote as the string terminator and then lexed the raw body as code,
    producing both false positives (rule tokens inside the raw text) and
    false negatives (real code swallowed when the body contained a quote).

    Waiver comments are blanked too; callers read waivers from the raw text.
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(lo, hi):
        for k in range(lo, min(hi, n)):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            blank(i, j + 2)
            i = j + 2
        elif c == '"' and _is_raw_string_quote(text, i):
            # R"delim( ... )delim" — find the delimiter, then the exact
            # closing sequence. An unterminated raw string blanks to EOF.
            dstart = i + 1
            dend = text.find("(", dstart)
            if dend == -1:
                blank(i + 1, n)
                i = n
                continue
            closer = ")" + text[dstart:dend] + '"'
            j = text.find(closer, dend + 1)
            if j == -1:
                blank(i + 1, n)
                i = n
            else:
                # Blank everything between the quotes, closer included up to
                # its final quote so the delimiter text never looks like code.
                blank(i + 1, j + len(closer) - 1)
                i = j + len(closer)
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\n":
                    break  # unterminated literal: don't eat the next line
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = j + 1
        else:
            i += 1
    return "".join(out)


def _is_raw_string_quote(text, i):
    """True when the quote at `i` opens a raw string literal: it is directly
    preceded by an R / u8R / uR / UR / LR prefix that is itself not part of a
    longer identifier (`FooR"x"` is the identifier FooR then a plain string).
    """
    start = max(0, i - 3)
    m = _RAW_PREFIX_RE.search(text[start:i])
    if not m:
        return False
    pstart = start + m.start()
    if pstart > 0:
        prev = text[pstart - 1]
        if prev.isalnum() or prev == "_":
            return False
    return True


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def waived(raw_lines, line, rule):
    """True if `rule` is waived on this line or the line directly above."""
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(raw_lines):
            m = WAIVER_RE.search(raw_lines[candidate - 1])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def find_compile_db(repo_root, explicit=None):
    """Returns the path of the compilation database to use, or None.

    `explicit` (from --compile-db) wins; otherwise the repo root and any
    build*/ directory under it are searched, newest-mtime first so a fresh
    reconfigure is preferred over a stale side build.
    """
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    candidates = [os.path.join(repo_root, "compile_commands.json")]
    try:
        entries = sorted(os.listdir(repo_root))
    except OSError:
        entries = []
    for entry in entries:
        if entry.startswith("build"):
            candidates.append(os.path.join(repo_root, entry, "compile_commands.json"))
    found = [c for c in candidates if os.path.isfile(c)]
    if not found:
        return None
    return max(found, key=os.path.getmtime)


def load_compile_db(db_path):
    """Parses a compile_commands.json into a sorted list of absolute source
    paths. Raises ValueError (with a human message) on malformed input."""
    try:
        with open(db_path) as f:
            entries = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"cannot read compilation database {db_path}: {e}")
    files = set()
    for entry in entries:
        try:
            path = os.path.normpath(
                os.path.join(entry.get("directory", ""), entry["file"]))
        except (TypeError, KeyError):
            continue
        if os.path.isfile(path):
            files.add(path)
    return sorted(files)


def missing_compile_db_message(tool, repo_root):
    return (
        f"{tool}: compile_commands.json is required but was not found under "
        f"{repo_root} (looked in the repo root and build*/ directories).\n"
        f"Generate one with:\n"
        f"    cmake -B build -S {repo_root}\n"
        f"(CMAKE_EXPORT_COMPILE_COMMANDS is ON by default for this repo), or "
        f"pass --compile-db=<path>."
    )


def emit(tool, findings, files_scanned, waived_count, fmt, repo_root, out=None):
    """Prints findings in the requested format; returns the process exit code
    (0 clean, 1 findings). `out` defaults to stdout."""
    import sys

    out = out or sys.stdout
    if fmt == "json":
        doc = {
            "tool": tool,
            "schema_version": SCHEMA_VERSION,
            "repo_root": repo_root,
            "files_scanned": files_scanned,
            "waived": waived_count,
            "findings": [f.to_dict() for f in findings],
        }
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        for f in findings:
            out.write(f.human() + "\n")
        status = "clean" if not findings else f"{len(findings)} violation(s)"
        out.write(
            f"{tool}: {status} ({files_scanned} files scanned, "
            f"{waived_count} waived)\n")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Token stream (used by elan_analyze)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<punct>::|->\*?|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||
        \+=|-=|\*=|/=|%=|&=|\^=|\|=|\.\.\.|[-+*/%&|^!~<>=.,;:?(){}\[\]])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "value", "line", "col", "offset")

    def __init__(self, kind, value, line, col, offset):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.offset = offset

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r}, L{self.line})"


def lex(stripped_text):
    """Tokenises comment/string-stripped C++ into (id | num | punct) tokens
    with 1-based line/column info. Not a conforming C++ lexer — it does not
    need to be: strings and comments are already gone, and the semantic rules
    only care about identifiers and structural punctuation."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(stripped_text)
    while pos < n:
        c = stripped_text[pos]
        if c == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if c.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(stripped_text, pos)
        if not m:
            pos += 1  # stray byte (e.g. backslash-newline); skip
            continue
        kind = m.lastgroup
        value = m.group()
        tokens.append(Token(kind, value, line, pos - line_start + 1, pos))
        # Numbers / identifiers never contain newlines; punct never does.
        pos = m.end()
    return tokens


def match_forward(tokens, i, opener, closer):
    """Given tokens[i] == opener, returns the index of the matching closer
    (same nesting level) or len(tokens) if unbalanced."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if v == opener:
            depth += 1
        elif v == closer:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def match_angle(tokens, i):
    """Template-argument matcher: tokens[i] == '<'; returns index of the
    matching '>' treating '<'/'>' as brackets but bailing out on tokens that
    cannot appear in a template argument list (';', '{'), which indicates the
    '<' was a comparison. Returns None when it was not a template list."""
    depth = 0
    n = len(tokens)
    j = i
    while j < n:
        v = tokens[j].value
        if v == "<":
            depth += 1
        elif v == ">":
            depth -= 1
            if depth == 0:
                return j
        elif v == ">>":
            depth -= 2
            if depth <= 0:
                return j
        elif v in (";", "{", "}"):
            return None
        j += 1
    return None
