"""List every statement of ``src/symvar`` that the Tier-1 suite never runs.

Runs the Tier-1 suite in this process through ``pytest.main`` under a
line tracer limited to ``src/symvar`` (``sys.settrace``, and
``threading.settrace`` for the threads the suite starts), then prints each
statement line (``ast.stmt``, docstrings and ``global``/``nonlocal``
left out: they compile to no code) that never ran.  Run it from anywhere::

    PYTHONPATH=src python scripts/line_audit.py

Code that tests run in a child process (``python -m symvar.cli``) is not
traced, so a statement reached only there counts as not run.

Exits 1 when the suite fails, when a non-``raise`` statement that did not
run is not in ``ALLOWED`` below, when an ``ALLOWED`` entry names a
statement that ran or no longer exists, or when more than ``MAX_RAISES``
``raise`` statements did not run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symvar"
MAX_RAISES = 20

# Non-raise statements allowed to go unrun, each with its reason, keyed by
# (file, dotted name of the enclosing function or class, the statement's
# first source line stripped): no line numbers, so an edit elsewhere in a
# file keeps its keys.
ALLOWED = {
    ("rearrange.py", "approx_symmetrize",
     "cur_terms = _run_terms(cur_terms, [t], runs, at, new_terms)"):
        "the plateau walk's move onto a run outside the kept set; no known "
        "input reaches it (ROADMAP item 7)",
    ("rearrange.py", "approx_symmetrize",
     "cur_sums, cur_dist = exact(cur_terms)"):
        "the plateau walk's move onto a run outside the kept set "
        "(ROADMAP item 7)",
    ("rearrange.py", "approx_symmetrize",
     "cur_terms, cur_dist = cur_terms[:, 0], cur_dist[0]"):
        "the plateau walk's move onto a run outside the kept set "
        "(ROADMAP item 7)",
    ("cli.py", "_run_path_minimax",
     'out.write_csv(["status", "argmax_node", "f(u_eps)"],'):
        "the path_minimax subcommand's writer: every registered functional "
        "raises NoMountainPass first (ROADMAP item 10)",
    ("cli.py", "_run_path_minimax",
     "return out.write_certificates(cert)"):
        "the path_minimax subcommand's writer (ROADMAP item 10)",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as __main__, which the CLI tests start in a child process",
}


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and bool(body)
            and body[0] is node
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef)))


def statements(path: Path) -> dict[int, tuple[str, str, bool]]:
    """Line -> (enclosing function, stripped first line, is a raise) for
    every statement of ``path`` a line tracer can see run."""
    source = path.read_text().splitlines()
    out: dict[int, tuple[str, str, bool]] = {}

    def visit(parent: ast.AST, scope: str) -> None:
        for node in ast.iter_child_nodes(parent):
            inner = scope
            if isinstance(node, ast.stmt):
                if not (_is_docstring(node, parent)
                        or isinstance(node, (ast.Global, ast.Nonlocal))):
                    out.setdefault(node.lineno, (
                        scope, source[node.lineno - 1].strip(),
                        isinstance(node, ast.Raise)))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    inner = (f"{scope}.{node.name}" if scope != "<module>"
                             else node.name)
            visit(node, inner)

    visit(ast.parse("\n".join(source), str(path)), "<module>")
    return out


def trace_suite(stmts: dict[str, dict], pytest_args: list[str]):
    """Run pytest under a line tracer; return (exit code, ran lines per
    file of ``stmts``).  A code object stops being traced once every
    statement line it holds has run."""
    ran: dict[str, set[int]] = {f: set() for f in stmts}
    canon: dict[str, str | None] = {}
    done: set = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        name = code.co_filename
        if name not in canon:
            real = os.path.realpath(name)
            canon[name] = real if real in ran else None
        if canon[name] is None:
            done.add(code)
            return None
        seen = ran[canon[name]]
        mine = {ln for _, _, ln in code.co_lines() if ln is not None}
        if mine.intersection(stmts[canon[name]]) <= seen:
            done.add(code)
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    import pytest

    # threads the suite starts (the samplers' draw-ahead) are traced too
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    stmts = {os.path.realpath(p): statements(p)
             for p in sorted(PACKAGE.glob("*.py"))}
    code, ran = trace_suite(stmts, [str(ROOT / "tests"), "-q",
                                    "-p", "no:cacheprovider"])
    module = sys.modules.get("symvar")
    if module is None or Path(module.__file__).resolve().parent != PACKAGE:
        print(f"the suite did not import symvar from {PACKAGE}; "
              "set PYTHONPATH=src")
        return 2
    if code != 0:
        print(f"pytest exited {code}; the audit needs a passing suite")
        return 1

    raises, unlisted, found = 0, [], set()
    print("\nstatements of src/symvar that no Tier-1 test ran:")
    for f, lines in stmts.items():
        name = Path(f).name
        for line, (scope, text, is_raise) in sorted(lines.items()):
            if line in ran[f]:
                continue
            key = (name, scope, text)
            tag = "raise" if is_raise else ("allowed" if key in ALLOWED
                                            else "UNREACHED")
            print(f"  {name}:{line} [{tag}] {scope}: {text}")
            if is_raise:
                raises += 1
            elif key in ALLOWED:
                found.add(key)
            else:
                unlisted.append(key)
    stale = sorted(set(ALLOWED) - found)
    print(f"\n{sum(map(len, stmts.values()))} statements; {raises} raise and "
          f"{len(found) + len(unlisted)} other statements did not run "
          f"({len(found)} allowed)")
    for key in stale:
        print(f"stale ALLOWED entry (it ran or is gone): {key}")
    if unlisted:
        print(f"{len(unlisted)} unreached statements are not in ALLOWED: "
              "test them or delete them")
    if raises > MAX_RAISES:
        print(f"{raises} raises did not run; at most {MAX_RAISES} may")
    return 1 if unlisted or stale or raises > MAX_RAISES else 0


if __name__ == "__main__":
    sys.exit(main())
