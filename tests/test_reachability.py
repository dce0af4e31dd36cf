"""Every top-level public function and class of the package has a use inside
the package, so code that only its own tests reach does not grow back."""

import ast
from pathlib import Path

import zetalab

PACKAGE = Path(zetalab.__file__).parent

# the barrier-events group is kept for a planned suite; these are its roots,
# and the rest of the group is used from them
BARRIER_EVENTS_ROOTS = {"event_flags", "evaluate_on_grid", "sample_euler_path",
                        "scale_ladder_from_loglog"}
# unused helpers still held by their own module tests; each is due for
# deletion together with those tests, and the list only shrinks
PENDING_DELETION = {"z_function", "high_points", "increments", "sample_x_p",
                    "sample_gaussian_walk", "phi_three_sinc"}
CLI_ENTRY_POINT = ("cli", "main")


def _is_suite_body(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "suite"
               for d in node.decorator_list)


def _names_read(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_definitions(package: Path) -> list[str]:
    """`module.name` of each top-level public definition that no other
    top-level statement of the package reads (`__init__.py` excluded)."""
    statements = []   # (module, statement, names read)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.stem, stmt, _names_read(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        if (_is_suite_body(stmt) or (module, stmt.name) == CLI_ENTRY_POINT
                or stmt.name in BARRIER_EVENTS_ROOTS | PENDING_DELETION):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_definition_is_used_in_the_package():
    assert unused_definitions(PACKAGE) == []
