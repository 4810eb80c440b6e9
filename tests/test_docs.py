"""Docs that cannot go stale.

Every fact in README.md, DESIGN.md and EXPERIMENTS.md has one home, and
this module checks the homes:

* **cites** — every backticked dotted name and path in the three docs
  and in the ``src/repro`` docstrings resolves:

  - a path exists relative to the repo, ``src``, ``src/repro`` or the
    citing module's directory (a bare file name such as
    ``bench_kernel.py`` anywhere in the repo; a glob matches something);
    ``file::test`` names a test defined in that file; ``file:N`` is a
    line that holds the name cited just before it;
  - ``repro.x.y`` imports;
  - a name led by a ``repro`` package (``efs.fsck``, ``sim.obs``) imports
    as ``repro.`` + name, or is a ``BENCHMARK.json`` metric, or a
    non-docstring string literal in ``src``/``benchmarks`` (span and
    metric names), or ends in a member some ``src`` class defines
    (instance paths such as ``config.cpu.spawn``);
  - ``Class.member`` is defined on that class or a base;
  - any other dotted name is a stdlib attribute, a literal, a metric, or
    ends in a member some ``src`` class defines (``info.server_ports``);

* **snippets** — every README python block runs on its own, in a fresh
  namespace, with the working directory set to a temporary directory
  and no absolute path in it;
* **examples** — README's examples table lists exactly ``examples/*.py``;
* **budgets** — DESIGN.md and README.md stay within their line budgets;
* **drift** — each measured cell of the EXPERIMENTS.md Table 3 and
  Table 4 tables is the committed ``BENCH_table3.json`` /
  ``BENCH_table4.json`` value as the benches print it.

Other documents record history and are not checked.
"""

import ast
import functools
import glob
import importlib
import json
import os
import pathlib
import re
import sys

import pytest

from repro.analysis import format_cell

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
BUDGETS = {"DESIGN.md": 300, "README.md": 400}

FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
CITE = re.compile(r"``(.+?)``|`([^`]+)`", re.S)
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(
    r"(?P<path>[\w*./-]*\.(?:py|json|md|toml|txt|yml))"
    r"(?:::(?P<test>\w+(?:::\w+)?)|:(?P<line>\d+))?"
)


def docstrings(tree):
    """The docstring expression of every module, class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first


def class_members(node):
    """Names a class body defines, its slots, and its ``self.x`` stores."""
    members = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            members.add(item.name)
        elif isinstance(item, ast.Assign):
            members |= {t.id for t in item.targets if isinstance(t, ast.Name)}
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in item.targets):
                members |= {c.value for c in ast.walk(item.value)
                            if isinstance(c, ast.Constant)
                            and isinstance(c.value, str)}
        elif (isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)):
            members.add(item.target.id)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            targets = [sub.target]
        else:
            continue
        members |= {t.attr for t in targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return members


class Index:
    """What the repo defines, read once: src modules and classes, string
    literals, ``BENCHMARK.json`` metrics and every file by name."""

    def __init__(self):
        self.packages = {path.stem for path in SRC.iterdir()
                         if path.suffix == ".py"
                         or (path / "__init__.py").exists()}
        self.classes = {}   # name -> [(module, members, base names)]
        self.members = set()
        self.sources = {path: ast.parse(path.read_text())
                        for path in sorted(SRC.rglob("*.py"))}
        for path, tree in self.sources.items():
            module = ".".join(path.relative_to(SRC.parent).with_suffix("")
                              .parts).removesuffix(".__init__")
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    members = class_members(node)
                    bases = [ast.unparse(base).split(".")[-1]
                             for base in node.bases]
                    self.classes.setdefault(node.name, []).append(
                        (module, members, bases))
                    self.members |= members
        self.literals = set()
        for path in [*SRC.rglob("*.py"), *(REPO / "benchmarks").rglob("*.py")]:
            tree = self.sources.get(path) or ast.parse(path.read_text())
            docs = {id(doc.value) for doc in docstrings(tree)}
            self.literals |= {node.value for node in ast.walk(tree)
                              if isinstance(node, ast.Constant)
                              and isinstance(node.value, str)
                              and id(node) not in docs}
        bench = json.loads((REPO / "BENCHMARK.json").read_text())
        self.metrics = {metric["name"] for key in ("end_to_end", "per_layer")
                        for metric in bench[key]}
        self.files = {}
        for root, dirs, names in os.walk(REPO):
            dirs[:] = [d for d in dirs if not d.startswith(".")]
            for name in names:
                self.files.setdefault(name, []).append(pathlib.Path(root, name))

    def defines(self, cls, member, seen=()):
        """``cls.member`` exists: in the class body, on the live class
        (external bases such as ``NamedTuple``) or on a src base."""
        for module, members, bases in self.classes.get(cls, []):
            if member in members or hasattr(
                    getattr(importlib.import_module(module), cls, None),
                    member):
                return True
            if any(self.defines(base, member, seen + (cls,))
                   for base in bases if base not in seen):
                return True
        return False


@functools.cache
def index():
    return Index()


def imports(dotted):
    """The longest importable prefix of ``dotted`` has the rest as
    attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def name_problem(name):
    idx = index()
    parts = name.split(".")
    head, last = parts[0], parts[-1]
    if head == "repro":
        return None if imports(name) else "does not import"
    if head in idx.packages:
        if (imports("repro." + name) or name in idx.metrics
                or name in idx.literals or last in idx.members):
            return None
        return f"is neither repro.{name}, a metric, a literal nor a member"
    if head in idx.classes:
        return None if idx.defines(head, parts[1]) else \
            f"{head} defines no {parts[1]}"
    if head in sys.stdlib_module_names and imports(name):
        return None
    if name in idx.literals or name in idx.metrics or last in idx.members:
        return None
    return f"no src class defines {last}"


def locate(path, bases):
    """The files a path cite names."""
    if "*" in path:
        return [pathlib.Path(hit) for base in bases
                for hit in glob.glob(str(base / path))]
    found = [base / path for base in bases if (base / path).is_file()]
    if not found and "/" not in path:
        found = index().files.get(path, [])
    return found


def path_problem(match, bases, previous):
    found = locate(match["path"], bases)
    if not found:
        return "does not exist"
    text = found[0].read_text()
    if match["test"]:
        defined = {node.name for node in ast.walk(ast.parse(text))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        missing = [part for part in match["test"].split("::")
                   if part not in defined]
        if missing:
            return f"defines no {missing[0]}"
    if match["line"]:
        lines = text.splitlines()
        number = int(match["line"])
        if not 1 <= number <= len(lines):
            return f"has no line {number}"
        if previous and (previous.isidentifier() or NAME.fullmatch(previous)):
            cited = previous.split(".")[-1]
            if cited not in lines[number - 1]:
                return f"line {number} does not hold {cited}"
    return None


def problems(text, where, bases):
    """One message per cite in ``text`` that does not resolve;
    ``where(offset)`` names the cite's location."""
    found = []
    previous = None
    blanked = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for match in CITE.finditer(blanked):
        cite = " ".join((match.group(1) or match.group(2)).split())
        cite = cite.lstrip("~").removesuffix("()")
        path = PATH.fullmatch(cite)
        if path:
            problem = path_problem(path, bases, previous)
        elif NAME.fullmatch(cite):
            problem = name_problem(cite)
        else:
            problem = None
        if problem:
            found.append(f"{where(match.start())}: `{cite}` {problem}")
        previous = cite
    return found


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


@pytest.mark.parametrize("doc", DOCS)
def test_every_doc_cite_resolves(doc):
    text = (REPO / doc).read_text()
    found = problems(text, lambda offset: f"{doc}:{line_of(text, offset)}",
                     (REPO, REPO / "src", SRC))
    assert not found, "\n".join(found)


def test_every_docstring_cite_resolves():
    found = []
    for path, tree in index().sources.items():
        relative = path.relative_to(REPO)
        for doc in docstrings(tree):
            text = doc.value.value
            found += problems(
                text,
                lambda offset: f"{relative}:{doc.lineno - 1 + line_of(text, offset)}",
                (REPO, REPO / "src", SRC, path.parent))
    assert not found, "\n".join(found)


def readme_blocks():
    """One param per python block, named after its section (not its
    line, so test ids survive edits above it)."""
    text = (REPO / "README.md").read_text()
    blocks, seen = [], {}
    for match in FENCE.finditer(text):
        if match.group(1) != "python":
            continue
        headings = re.findall(r"^## (.+)$", text[:match.start()], re.M)
        slug = re.sub(r"\W+", "-", headings[-1].lower()).strip("-") \
            if headings else "intro"
        seen[slug] = seen.get(slug, 0) + 1
        name = slug if seen[slug] == 1 else f"{slug}-{seen[slug]}"
        line = line_of(text, match.start()) + 1
        blocks.append(pytest.param(match.group(2), line, id=name))
    return blocks


@pytest.mark.parametrize("source,line", readme_blocks())
def test_readme_block_runs_on_its_own(source, line, tmp_path, monkeypatch):
    tree = ast.parse(source)
    absolute = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.startswith(("/", "~"))]
    assert not absolute, f"README.md:{line} names {absolute}"
    monkeypatch.chdir(tmp_path)
    exec(compile(tree, f"README.md:{line}", "exec"), {"__name__": "readme"})


def test_readme_examples_table_lists_every_example():
    text = (REPO / "README.md").read_text()
    listed = set(re.findall(r"^\| `(examples/\w+\.py)` \|", text, re.M))
    present = {f"examples/{path.name}"
               for path in (REPO / "examples").glob("*.py")}
    assert listed == present


@pytest.mark.parametrize("doc", sorted(BUDGETS))
def test_doc_stays_within_its_line_budget(doc):
    lines = len((REPO / doc).read_text().splitlines())
    assert lines <= BUDGETS[doc], f"{doc}: {lines} > {BUDGETS[doc]} lines"


def experiments_rows(heading):
    """The ``| p | ... |`` rows of the table under an EXPERIMENTS.md
    heading, by p."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    section = text.split(f"\n## {heading}", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if re.match(r"\| \d+ \|", line)]
    return {p: cells for p, *cells in rows}


@pytest.mark.parametrize("heading,bench,keys", [
    ("Table 3", "table3", ("copy_seconds",)),
    ("Table 4", "table4", ("local_sort_seconds", "merge_seconds",
                           "total_seconds", "records_per_second")),
])
def test_experiments_table_cells_equal_the_committed_json(heading, bench,
                                                          keys):
    by_p = json.loads((REPO / f"BENCH_{bench}.json").read_text())["by_p"]
    rows = experiments_rows(heading)
    assert list(rows) == list(by_p)
    for p, cells in rows.items():
        assert cells[:len(keys)] == [format_cell(by_p[p][key])
                                     for key in keys], (heading, p)
