"""The self-hosted analyzer gates the library's source hygiene.

This file used to carry three coarse AST checks (unused imports, debug
prints, mutable defaults).  Those checks — and eight more (determinism,
units discipline, tolerance comparison, exception contract, ``__all__``
drift, state-machine transitions, ordering hazards) — now live in
:mod:`repro.analysis`; the hygiene gate is simply "the analyzer runs
clean over ``src/`` with zero unbaselined findings", so a regression in
any invariant fails the suite offline with no external linter.

See ``tests/analysis/`` for the engine's own test suite.

The file also holds the dependency contract: the runtime is the
standard library alone, and ``pyproject.toml``'s ``dev`` extras declare
every package the tests and benchmarks import. And it holds the
reachability contract: ``src/`` carries no definition that only tests
use, and the bench contract: ``scripts/check.sh`` runs every bench
under ``benchmarks/`` that ``MANUAL`` does not name with a reason.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tomllib

import pytest

from repro.analysis import Baseline, analyze_paths, load_baseline, \
    render_text

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BASELINE = ROOT / "analysis-baseline.json"


def _run():
    baseline = load_baseline(BASELINE) if BASELINE.exists() \
        else Baseline.empty()
    return analyze_paths([SRC], baseline=baseline, root=ROOT)


def test_every_module_parses():
    result = _run()
    assert not result.parse_errors, result.parse_errors
    assert result.module_count > 90  # the whole library was analysed


def _oldest_supported_python() -> "tuple[int, int]":
    """The floor of ``requires-python`` in ``pyproject.toml``."""
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", project["requires-python"])
    assert floor is not None, project["requires-python"]
    return int(floor.group(1)), int(floor.group(2))


def test_every_module_parses_under_the_oldest_supported_grammar():
    """The suite may run on a newer interpreter than the oldest one
    ``pyproject.toml`` declares: a ``match`` statement would pass every
    other test on 3.11 and then fail to import on 3.9. The floor is read
    from ``pyproject.toml``, so the two cannot drift. The check is the
    parser's own, so it is grammar only (and best effort: newer runtime
    features such as a new ``re`` syntax pass)."""
    oldest = _oldest_supported_python()
    too_new = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=oldest)
        except SyntaxError as error:
            too_new.append(f"{path.relative_to(ROOT)}:{error.lineno}: "
                           f"{error.msg}")
    assert not too_new, too_new


def test_analyzer_runs_clean_on_src():
    """Zero new findings — errors *and* warnings — over the library."""
    result = _run()
    assert not result.new_findings, "\n" + render_text(result,
                                                       verbose=True)


def test_baseline_carries_no_stale_entries():
    """Fixed findings must leave the baseline, not linger."""
    result = _run()
    assert result.stale_baseline == []


# ----------------------------------------------------------------------
# The dependency contract: a stdlib-only runtime, declared dev extras
# ----------------------------------------------------------------------

#: Every entry point a user or the CLI starts from.
_ENTRY_POINTS = ("repro", "repro.cli", "repro.federation",
                 "repro.experiments.quickstart")


def test_the_runtime_imports_nothing_outside_the_standard_library():
    """A fresh interpreter imports every entry point; each module that
    arrives must be the standard library's or the package's own."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"for name in {_ENTRY_POINTS!r}:\n"
        "    __import__(name)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert "repro" in loaded
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"repro"})
    assert foreign == []


def _requirement_name(requirement: str) -> str:
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    return name.lower().replace("-", "_").replace(".", "_")


def _third_party_imports(root: pathlib.Path) -> "dict[str, str]":
    """Top-level absolute imports under ``root`` that are neither the
    standard library nor this checkout's own code -> one file using
    each."""
    local = {"repro", "tests", "benchmarks"}
    local.update(path.stem for path in root.rglob("*.py"))
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def test_pyproject_declares_no_runtime_dependency_and_every_dev_import():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    dev = {_requirement_name(requirement)
           for requirement in project["optional-dependencies"]["dev"]}
    imported = {}
    for root in (ROOT / "tests", ROOT / "benchmarks"):
        imported.update(_third_party_imports(root))
    undeclared = {name: where for name, where in imported.items()
                  if name.lower() not in dev}
    assert undeclared == {}
    assert {"hypothesis", "networkx", "pytest"} <= set(imported)


# ----------------------------------------------------------------------
# The reachability contract: src/ is the program
# ----------------------------------------------------------------------

#: What a user runs. ``tests/`` is not a root: a definition that only a
#: test reaches is not program code.
PROGRAM_ROOTS = ("src", "examples", "benchmarks", "scripts")

#: ``module:qualname`` -> why it stays although no program root reaches
#: it. The test fails on an unreached definition missing here *and* on
#: an entry whose definition is reached or gone.
KEEP = {
    "repro.core.adaptation:AdaptationEngine.net_capacity":
        "the paper's Cn(t) = Ca - (sum c(u,t) - Cg) (DESIGN §4); tests hold "
        "the partition to it",
    "repro.workloads.replay:ReplayResult.report_json":
        "the canonical report form the atlas profiles and the "
        "determinism tests hash",
    "repro.federation.replay:FederatedReplayResult.report_json":
        "the canonical report form the federated profiles and the "
        "determinism tests hash",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Decorators that say nothing about whether a definition is used.
_NEUTRAL_DECORATORS = frozenset({"property", "staticmethod", "classmethod"})
#: Decorators that put what they decorate to use.
_USING_DECORATORS = frozenset({"register"})
#: ``(root-relative file or None for any file, assigned name)``: tables
#: of names held as strings that are not references. The ledger's
#: ``LAYERS`` skips an absent entry by design.
_NAME_TABLES = frozenset({(None, "__all__"),
                          ("benchmarks/ledger/trace.py", "LAYERS")})
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str, body, prefix: str = ""):
    """``(module:qualname, name)`` for each module- and class-level
    definition; dunder methods are the interpreter's to call."""
    for node in body:
        if not isinstance(node, _DEFINITIONS):
            continue
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield f"{module}:{prefix}{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            yield from _definitions(module, node.body,
                                    f"{prefix}{node.name}.")


def _unread_strings(tree: ast.Module, relative: str) -> "set[int]":
    """Ids of the string constants that are not references: docstrings
    and the entries of the name tables."""
    unread = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            unread.add(id(node.body[0].value))
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(target, ast.Name)
                and ((None, target.id) in _NAME_TABLES
                     or (relative, target.id) in _NAME_TABLES)
                for target in targets):
            unread.update(id(sub) for sub in ast.walk(node.value))
    return unread


class _References(ast.NodeVisitor):
    """Every name a module mentions — as a name, an attribute or a word
    of a string — outside the body of a definition carrying it."""

    def __init__(self, unread: "set[int]", names: "set[str]") -> None:
        self.unread = unread
        self.names = names
        self.owners: "list[str]" = []

    def _mention(self, name: str) -> None:
        if name not in self.owners:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        self._mention(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._mention(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and id(node) not in self.unread:
            for word in _WORD.findall(node.value):
                self._mention(word)

    def _visit_definition(self, node) -> None:
        for decorator in node.decorator_list:
            called = decorator.func if isinstance(decorator, ast.Call) \
                else decorator
            name = getattr(called, "id", getattr(called, "attr", None))
            if name in _NEUTRAL_DECORATORS:
                continue
            if name in _USING_DECORATORS:
                self._mention(node.name)
            self.visit(decorator)
        if isinstance(node, ast.ClassDef):
            header = [*node.bases, *node.keywords]
        else:
            header = [node.args, *([node.returns] if node.returns else [])]
        for part in header:
            self.visit(part)
        self.owners.append(node.name)
        for statement in node.body:
            self.visit(statement)
        self.owners.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = \
        _visit_definition


def unreached_definitions(root: pathlib.Path) -> "set[str]":
    """``module:qualname`` of each definition under ``root/src`` that no
    file under a program root mentions."""
    defined, names = [], set()
    for top in PROGRAM_ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=relative)
            _References(_unread_strings(tree, relative), names).visit(tree)
            if top == "src":
                parts = path.relative_to(root / top).with_suffix("").parts
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                defined.extend(_definitions(".".join(parts), tree.body))
    return {key for key, name in defined if name not in names}


def test_src_holds_only_what_the_program_reaches():
    unreached = unreached_definitions(ROOT)
    assert sorted(unreached - KEEP.keys()) == [], \
        "only tests reach these: delete them, or KEEP one with a reason"
    assert sorted(KEEP.keys() - unreached) == [], \
        "stale KEEP entries: the program reaches them, or they are gone"


def test_every_keep_entry_says_why():
    assert all(reason.strip() for reason in KEEP.values())


_PROGRAM = {
    "src/pkg/__init__.py": "__all__ = ['helper', 'only_tested']\n",
    "src/pkg/mod.py": (
        '"""Mentions only_in_docstring."""\n'
        "from repro.analysis import register\n"
        "def helper():\n    return helper() + used_by_string()\n"
        "def used_by_string():\n    return 1\n"
        "def only_tested():\n    return 1\n"
        "def only_in_docstring():\n    return 1\n"
        "@register\nclass Rule:\n"
        "    @property\n    def unread(self):\n        return 1\n"),
    "examples/run.py": "from pkg.mod import helper\nhelper()\n"
                       "getattr(helper, 'used_by_string')\n",
    "tests/test_mod.py": "from pkg.mod import only_tested\nonly_tested()\n",
    "benchmarks/ledger/trace.py": "LAYERS = {'x': ('pkg.mod:Rule.x',)}\n",
}


@pytest.mark.parametrize("extra, expected", [
    ({}, {"pkg.mod:only_tested", "pkg.mod:only_in_docstring",
          "pkg.mod:Rule.unread"}),
    # A test is not a root; a LAYERS entry names without referencing.
    ({"tests/test_more.py": "from pkg.mod import Rule\nRule().unread\n",
      "benchmarks/ledger/trace.py": "LAYERS = {'x': ('Rule.unread',)}\n"},
     {"pkg.mod:only_tested", "pkg.mod:only_in_docstring",
      "pkg.mod:Rule.unread"}),
    # Anywhere else a string word is a reference.
    ({"scripts/go.py": "print('only_tested unread')\n"},
     {"pkg.mod:only_in_docstring"}),
])
def test_the_pass_counts_what_a_program_root_mentions(tmp_path, extra,
                                                      expected):
    for name, text in {**_PROGRAM, **extra}.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unreached_definitions(tmp_path) == expected


# ----------------------------------------------------------------------
# The bench contract: check.sh runs every bench's own bound
# ----------------------------------------------------------------------

#: What under ``benchmarks/`` the bench step of ``scripts/check.sh``
#: leaves out -> why. Every other bench runs there, on the tree.
MANUAL = {
    "ledger": "the BENCHMARK.json ledger: check.sh runs its --smoke "
              "steps instead, and full runs compare two checkouts",
}


def bench_step_gaps(root: pathlib.Path, manual) -> "list[str]":
    """What breaks the bench contract under ``root``: a path the bench
    step leaves out that ``manual`` does not name, a bench module the
    step collects that holds no test, and a ``manual`` entry that is
    gone or that the step runs."""
    script = (root / "scripts" / "check.sh").read_text(encoding="utf-8")
    lines = script.replace("\\\n", " ").splitlines()
    steps = [words for words in (shlex.split(line) for line in lines
                                 if line.startswith("python -m pytest"))
             if "benchmarks" in words]
    assert len(steps) == 1, "check.sh needs one pytest step over benchmarks"
    left_out = {word.removeprefix("--ignore=benchmarks/")
                for word in steps[0] if word.startswith("--ignore=")}
    benches = root / "benchmarks"
    gaps = [f"left out without a reason: {name}"
            for name in sorted(left_out - manual.keys())]
    gaps += [f"stale MANUAL entry: {name}" for name in sorted(manual)
             if name not in left_out or not (benches / name).exists()]
    for path in sorted(benches.rglob("bench_*.py")):
        relative = path.relative_to(benches)
        if any(relative.is_relative_to(name) for name in left_out):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not any(isinstance(node, ast.FunctionDef)
                   and node.name.startswith("test_") for node in tree.body):
            gaps.append(f"runs no test: {relative.as_posix()}")
    return gaps


def test_check_sh_runs_every_bench_not_named_in_manual():
    assert bench_step_gaps(ROOT, MANUAL) == []
    assert all(reason.strip() for reason in MANUAL.values())


_STEP = ("python -m pytest -q benchmarks \\\n"
         "    --ignore=benchmarks/bench_slow.py\n")


@pytest.mark.parametrize("files, manual, expected", [
    ({}, {"bench_slow.py": "slow"}, []),
    # A new bench check.sh leaves out, and one it collects but that
    # holds no test: neither runs.
    ({"scripts/check.sh": _STEP.replace(
        "slow.py", "slow.py --ignore=benchmarks/bench_new.py"),
      "benchmarks/bench_new.py": "def test_new():\n    pass\n"},
     {"bench_slow.py": "slow"}, ["left out without a reason: bench_new.py"]),
    ({"benchmarks/bench_new.py": "def measure():\n    pass\n"},
     {"bench_slow.py": "slow"}, ["runs no test: bench_new.py"]),
    # A MANUAL entry whose bench is gone, or that check.sh runs.
    ({}, {"bench_slow.py": "slow", "bench_gone.py": "gone"},
     ["stale MANUAL entry: bench_gone.py"]),
    ({"scripts/check.sh": "python -m pytest -q benchmarks\n"},
     {"bench_slow.py": "slow"}, ["stale MANUAL entry: bench_slow.py"]),
])
def test_the_bench_contract_fails_on_what_check_sh_skips(tmp_path, files,
                                                        manual, expected):
    tree = {"scripts/check.sh": _STEP,
            "benchmarks/bench_fast.py": "def test_fast():\n    pass\n",
            "benchmarks/bench_slow.py": "def test_slow():\n    pass\n",
            **files}
    for name, text in tree.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert bench_step_gaps(tmp_path, manual) == expected
