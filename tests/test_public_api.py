"""The public surface: README's Python example runs as written, its file
formats are read by the package's readers, and every exported name, and
every function, method and class the package defines, has a caller in the
package or is a listed entry point."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import magicforge
from magicforge.diagonal_gates import PhasePolynomial, RotationVector
from magicforge.optimizer import OptimizerConfig, config_from_dict
from magicforge.stabilizer import StabilizerTableau
from magicforge.transfer import circuit_from_json

REPO = Path(__file__).resolve().parents[1]

# exported for scripts and tests, with no caller in src/ or magicbench/;
# README's "Python API" section lists the same names
ENTRY_POINTS = (
    "make_gate",
    "is_graph_type",
    "tableau_expectation",
    "objective",
    "objective_grad",
    "zero_magic_state_for_gate",
    "no_ordering_witness",
    "expectation",
)


def readme_section(title: str) -> str:
    text = (REPO / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    return text[start:text.index("\n## ", start + 1)]


class _Loads(ast.NodeVisitor):
    """Names a module loads, as a bare name or an attribute, outside the
    function or class that defines the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._inside: list[str] = []

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _load(self, name: str) -> None:
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)

    def visit_Attribute(self, node):
        self._load(node.attr)
        self.generic_visit(node)


def package_loads() -> set[str]:
    package = Path(magicforge.__file__).parent
    loads = _Loads()
    for path in [*package.glob("*.py"), *(REPO / "magicbench").glob("*.py")]:
        if path.name != "__init__.py":
            loads.visit(ast.parse(path.read_text()))
    return loads.names


def test_every_public_name_is_called_or_an_entry_point():
    loads = package_loads()
    uncalled = [name for name in magicforge.__all__ if name not in loads]
    assert sorted(uncalled) == sorted(ENTRY_POINTS), \
        "a public name without a caller is dead, or belongs in ENTRY_POINTS and README"


def package_definitions() -> set[str]:
    """Every function, method and class name defined in the package, nested
    ones included, dunders excluded."""
    names = set()
    for path in Path(magicforge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                names.add(node.name)
    return names


def test_every_definition_is_called_or_an_entry_point():
    loads = package_loads()
    uncalled = [name for name in package_definitions() if name not in loads]
    assert sorted(uncalled) == sorted(ENTRY_POINTS), \
        "a definition without a caller is dead, or belongs in ENTRY_POINTS and README"


def test_readme_lists_the_entry_points():
    (paragraph,) = [p for p in readme_section("Python API").split("\n\n")
                    if "no caller inside the package" in p]
    assert sorted(set(re.findall(r"`([A-Za-z_]\w*)`", paragraph))) == sorted(ENTRY_POINTS)


def test_readme_example_states_its_values():
    source = readme_section("Python API").split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert list(shown) == ["mf.f_alpha(spec, 2)", "mf.sre(spec, 2)", "mf.flat_bound(2, 2)",
                           "res[-1].f_after", "mf.apply_clifford(tab, c).to_json()"]
    assert abs(shown["mf.f_alpha(spec, 2)"] - 1.75) <= 1e-12
    assert abs(shown["mf.sre(spec, 2)"] - (2 - math.log2(1.75))) <= 1e-12
    assert abs(shown["mf.flat_bound(2, 2)"] - 1.75) <= 1e-12
    assert abs(shown["res[-1].f_after"] - 1.5) <= 1e-12
    assert shown["mf.apply_clifford(tab, c).to_json()"] == {"n": 2, "generators": ["+XX", "+IX"]}


def file_format_examples() -> list[dict]:
    """Every JSON object that README's "File formats" section shows, in a
    ``json`` block or inline as code."""
    section = readme_section("File formats")
    decoder = json.JSONDecoder()
    examples = []
    for block in re.findall(r"```json\n(.*?)```", section, re.S):
        pos = 0
        while pos < len(block):  # one or more objects, blank space between them
            obj, end = decoder.raw_decode(block, pos)
            examples.append(obj)
            pos = re.compile(r"\s*").match(block, end).end()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S)):
        try:
            obj = json.loads(span)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            examples.append(obj)
    return examples


def test_readme_file_formats_are_read():
    # a spelling the readers dropped cannot stay in the docs
    config_keys = {f.name for f in dataclasses.fields(OptimizerConfig)}
    kinds = []
    for obj in file_format_examples():
        if "generators" in obj:
            kinds.append("tableau")
            StabilizerTableau.from_json(obj)
        elif "layers" in obj:
            kinds.append("circuit")
            circuit_from_json(obj)
        elif "terms" in obj:
            kinds.append("gate")
            PhasePolynomial.from_json({"n": len(obj["terms"][0]["a"]), **obj})
        elif {"w", "k"} & set(obj):
            kinds.append("rotation")
            RotationVector.from_json(obj)
        else:
            assert set(obj) <= config_keys, f"README shows JSON that no reader takes: {obj}"
            kinds.append("config")
            config_from_dict(obj)
    assert set(kinds) == {"tableau", "circuit", "gate", "rotation", "config"}, kinds
