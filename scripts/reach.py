#!/usr/bin/env python
"""Reach trace: which lines of ``src/repro`` does anything actually run?

``coverage`` is not installable here, so this is a ``sys.settrace`` hook
(stdlib only).  One command runs the *product traffic* — every bench
through ``scripts/run_reproduction.py`` (quick and default scale; never
through pytest-benchmark, which switches the tracer off inside
``benchmark.pedantic``), the ledger at ``--scale 0.05``, every
``examples/*.py`` and both baseline scripts — and, with ``--tests``,
tier-1.  (``bench_kernel.py`` is left out: its events/s floors cannot
hold under a tracer, and it drives nothing Table 2 does not.)
Subprocesses inherit the hook through a ``sitecustomize`` directory on
``PYTHONPATH``.

It prints, per file and per function, the executable lines
(``code.co_lines()``), how many the product ran, how many only the
tests ran and how many nothing ran, plus how often the function's name
occurs outside ``tests/`` (its definition and ``__init__`` re-exports
not counted), and last, per function, the line ranges nothing runs
(with ``--tests``, neither the product nor tier-1).  The rule applied to the list: a function the product
never enters is deleted, unless it is a test seam, safety code, or a
reference a test compares against; a later workload that needs it
re-adds it.

Usage:
    python scripts/reach.py [--tests] [--fail-on-unreached] [--max-cold N]
                            [--report FILE]

``--fail-on-unreached`` exits 1 when a function other than ``__repr__``
is entered by neither the product traffic nor tier-1 (it needs
``--tests``).  ``--max-cold N`` exits 1 when more than N functions
(``__repr__`` included) are never entered by the product traffic — the
"never entered by product" count of the report's second line — so the
count cannot grow back without someone raising N.
"""

import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"

#: Installed in every traced process by ``sitecustomize``: records each
#: line run and each code object entered under ``REACH_PREFIX``, and
#: writes one JSON file per process into ``REACH_OUT`` at exit.
HOOK = '''
import atexit, json, os, sys, threading, time

_prefix = os.environ.get("REACH_PREFIX")
_out = os.environ.get("REACH_OUT")
if _prefix and _out:
    _lines = {}
    _entered = set()
    _tracers = {}

    def _tracer_for(filename):
        seen = _lines[filename] = set()
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        _tracers[filename] = local
        return local

    def _global(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if not filename.startswith(_prefix):
            return None
        local = _tracers.get(filename) or _tracer_for(filename)
        _entered.add((filename, code.co_firstlineno, code.co_name))
        _lines[filename].add(frame.f_lineno)
        return local

    def _dump():
        sys.settrace(None)
        path = os.path.join(_out, "%d.%d.json" % (os.getpid(), time.time_ns()))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"lines": {f: sorted(s) for f, s in _lines.items()},
                       "entered": sorted(_entered)}, handle)

    atexit.register(_dump)
    threading.settrace(_global)
    sys.settrace(_global)
'''


def product_commands():
    """The product traffic, one argv per process."""
    python = sys.executable
    commands = [
        [python, "scripts/run_reproduction.py", "--quick"],
        [python, "scripts/run_reproduction.py"],
        [python, "benchmarks/ledger/run.py", "--reps", "1", "--scale", "0.05",
         "--out", os.devnull],
        [python, "scripts/span_baseline.py", "--check"],
        [python, "scripts/ledger_sim_baseline.py", "--check"],
    ]
    commands += [[python, str(path.relative_to(REPO))]
                 for path in sorted((REPO / "examples").glob("*.py"))]
    return commands


def run_traced(commands, out_dir):
    """Run each command under the hook, dumps landing in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as hook_dir:
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, str(REPO / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["REACH_PREFIX"] = str(PACKAGE) + os.sep
        env["REACH_OUT"] = str(out_dir)
        for argv in commands:
            print("reach: tracing", " ".join(argv[1:]), flush=True)
            done = subprocess.run(argv, cwd=REPO, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                print(done.stdout)
                raise SystemExit(f"reach: {' '.join(argv[1:])} failed")


def load(out_dir):
    """Merge one directory of dumps: ``(lines per file, entered)``."""
    lines = {}
    entered = set()
    for path in sorted(out_dir.glob("*.json")):
        dump = json.loads(path.read_text())
        for filename, numbers in dump["lines"].items():
            lines.setdefault(os.path.realpath(filename), set()).update(numbers)
        for filename, first, name in dump["entered"]:
            entered.add((os.path.realpath(filename), first, name))
    return lines, entered


def _is_class_body(code):
    return "__module__" in code.co_names and "__qualname__" in code.co_names


def functions_of(path):
    """``(module lines, [(qualname, first line, name, body lines)])``.

    Every executable line belongs to one unit: the function whose code
    object holds it — except a line the enclosing unit also holds (a
    ``def`` or decorator line runs when the *enclosing* scope defines
    the function).  Class bodies, lambdas and comprehensions
    are not units; their lines count for the scope around them.  A
    function left without lines (a docstring-only declaration) is not
    listed."""
    top = compile(path.read_text(), str(path), "exec")
    functions = []

    def own_lines(code):
        return {line for _start, _end, line in code.co_lines() if line}

    def walk(code, lines):
        for const in code.co_consts:
            if not hasattr(const, "co_code"):
                continue
            is_unit = not (_is_class_body(const)
                           or const.co_name.startswith("<"))
            if is_unit:
                body = own_lines(const) - lines
                walk(const, body)
                functions.append((getattr(const, "co_qualname", const.co_name),
                                  const.co_firstlineno, const.co_name, body))
            else:
                lines |= own_lines(const)
                walk(const, lines)

    module_lines = own_lines(top)
    walk(top, module_lines)
    return module_lines, [f for f in functions if f[3]]


def reference_counts(names):
    """Occurrences of each name in non-test python outside its own
    ``def`` and outside ``__init__`` import lists and ``__all__``."""
    counts = dict.fromkeys(names, 0)
    word = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
    roots = [REPO / "src", REPO / "benchmarks", REPO / "scripts",
             REPO / "examples"]
    for root in roots:
        for path in root.rglob("*.py"):
            text = path.read_text()
            if path.name == "__init__.py":
                tree = ast.parse(text)
                found = [node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name)]
                found += [node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)]
            else:
                found = word.findall(re.sub(r"\bdef\s+\w+", "", text))
            for token in found:
                if token in counts:
                    counts[token] += 1
    return counts


def _ranges(lines, unrun):
    """``"12-14, 20"``: the runs of ``unrun`` among the sorted executable
    ``lines`` (a run is broken only by an executable line that ran)."""
    spans = []
    for line in lines:
        if line not in unrun:
            spans.append(None)
        elif spans and spans[-1] is not None:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else str(a)
                     for a, b in filter(None, spans))


def report(product, tests, out):
    """Write the report; returns ``(cold, unreached)``: the functions the
    product never enters, and those nothing enters other than
    ``__repr__``."""
    product_lines, product_entered = product
    test_lines, test_entered = tests if tests is not None else ({}, set())
    files = []
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module_lines, functions = functions_of(path)
        real = os.path.realpath(path)
        by_product = product_lines.get(real, set())
        by_tests = test_lines.get(real, set())
        executable = set(module_lines)
        for qualname, first, name, body in functions:
            executable |= body
            key = (real, first, name)
            unrun = body - by_product - by_tests
            rows.append({
                "file": str(path.relative_to(PACKAGE)), "line": first,
                "qualname": qualname, "name": name, "body": len(body),
                "product": key in product_entered,
                "tests": key in test_entered,
                "body_product": len(body & by_product),
                "body_tests_only": len(body & by_tests - by_product),
                "unrun": _ranges(sorted(body), unrun),
            })
        files.append((str(path.relative_to(PACKAGE)), len(executable),
                      len(executable & by_product),
                      len(executable & by_tests - by_product),
                      len(executable - by_product - by_tests)))
    total, ran, tests_only, nothing = (sum(f[i] for f in files)
                                       for i in range(1, 5))
    cold = [row for row in rows if not row["product"]]
    dead = [row for row in cold if not row["tests"]]
    references = reference_counts({row["name"] for row in cold})
    with_tests = "" if tests is not None else " (tier-1 not traced)"
    print(f"executable lines {total}; not run by product {total - ran} "
          f"({(total - ran) / total:.1%}); run by tests only {tests_only}; "
          f"run by nothing {nothing}{with_tests}", file=out)
    print(f"functions {len(rows)}; never entered by product {len(cold)} "
          f"({sum(row['body'] for row in cold)} body lines); entered by "
          f"nothing {len(dead)}, other than __repr__ "
          f"{sum(row['name'] != '__repr__' for row in dead)}", file=out)
    print("\nper file: executable / run by product / by tests only / by "
          "nothing", file=out)
    for name, *numbers in files:
        print(f"  {name:<34}" + "".join(f"{n:>7}" for n in numbers), file=out)
    print("\nfunctions the product never enters: body lines / run by "
          "tests / entered by / non-test references", file=out)
    for row in cold:
        who = "tests" if row["tests"] else "NOTHING"
        print(f"  {row['file']}:{row['line']} {row['qualname']:<44}"
              f"{row['body']:>4}{row['body_tests_only']:>4}  {who:<8}"
              f"{references[row['name']]:>3}", file=out)
    print("\nlines nothing runs, per function", file=out)
    for row in rows:
        if row["unrun"]:
            print(f"  {row['file']}:{row['line']} {row['qualname']:<44}"
                  f"{row['unrun']}", file=out)
    return cold, [row for row in dead if row["name"] != "__repr__"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also trace tier-1")
    parser.add_argument("--fail-on-unreached", action="store_true",
                        help="exit 1 when product and tier-1 both miss a "
                             "function other than __repr__")
    parser.add_argument("--max-cold", type=int, metavar="N",
                        help="exit 1 when more than N functions are never "
                             "entered by the product")
    parser.add_argument("--report", help="write the report here, not stdout")
    args = parser.parse_args()
    if args.fail_on_unreached and not args.tests:
        parser.error("--fail-on-unreached needs --tests")
    with tempfile.TemporaryDirectory() as scratch:
        data = pathlib.Path(scratch).resolve()
        run_traced(product_commands(), data / "product")
        if args.tests:
            run_traced([[sys.executable, "-m", "pytest", "-q",
                         "-p", "no:cacheprovider"]], data / "tests")
        product = load(data / "product")
        tests = load(data / "tests") if args.tests else None
    if args.report:
        with open(args.report, "w", encoding="utf-8") as out:
            cold, unreached = report(product, tests, out)
    else:
        cold, unreached = report(product, tests, sys.stdout)
    status = 0
    if args.fail_on_unreached and unreached:
        for row in unreached:
            print(f"reach: nothing enters {row['file']}:{row['line']} "
                  f"{row['qualname']}", file=sys.stderr)
        status = 1
    if args.max_cold is not None and len(cold) > args.max_cold:
        print(f"reach: the product never enters {len(cold)} functions, "
              f"more than --max-cold {args.max_cold}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
