"""Every name hopfcap exports has a caller outside its own unit tests, the
package's settable values do not grow unnoticed, and no module reads the
process environment.

A name counts as used when a package module other than ``__init__.py``
references it, or when the acceptance gate does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hopfcap"


def exported_names(path):
    tree = ast.parse(path.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names(path):
    """Names a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_export_has_a_caller():
    exports = exported_names(PACKAGE / "__init__.py")
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(referenced_names(p) for p in sources))
    assert "run_all" in exports
    assert [name for name in exports if name not in used] == []


# Parameters with a default plus dataclass fields with a default, over the
# package.  A new knob must remove another or raise this ceiling in plain
# sight, and a change that removes one lowers it.
SETTABLE_CEILING = 9


def settable_values(path):
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            ast.unparse(d).startswith("dataclass") for d in node.decorator_list
        ):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_values_do_not_grow():
    assert sum(settable_values(p) for p in PACKAGE.glob("*.py")) == SETTABLE_CEILING


# Names through which a module would read the process environment.
AMBIENT = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # Every input is a flag or an argument, so a run is fixed by its
    # command line; an environment variable would change it unseen.
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in AMBIENT:
                reads.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}" for a in node.names if a.name in AMBIENT]
    assert reads == []
