"""Every top-level public function and class of the package has a use inside
the package, and every option of a public function or method is set by some
call, so neither code that only its own tests reach nor knobs that no caller
turns grow back."""

import ast
from pathlib import Path

import zetalab

PACKAGE = Path(zetalab.__file__).parent
TESTS = Path(__file__).parent
CLI_ENTRY_POINT = ("cli", "main")
# perfbench's hook for zeta_euler_maclaurin reads `cutoff` from the bound
# arguments, so the parameter stays although no call sets it
UNSET_OPTIONS_ALLOWED = {"zeta.zeta_euler_maclaurin.cutoff"}


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
        if _is_suite_body(stmt) or (module, stmt.name) == CLI_ENTRY_POINT:
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_public_definition_is_used_in_the_package():
    assert unused_definitions(PACKAGE) == []


def _public_functions(package: Path):
    """(`module.qualified_name`, function node, leading parameters a call does
    not pass: `self` or `cls`) for each public function and public method of a
    public class."""
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            if isinstance(stmt, ast.FunctionDef):
                yield f"{path.stem}.{stmt.name}", stmt, 0
            else:
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{path.stem}.{stmt.name}.{fn.name}", fn, 1


def _calls(paths) -> dict[str, list[tuple[float, set[str]]]]:
    """Called name -> (positional arguments, keyword names) per call; a `*args`
    counts as every position and a `**kwargs` as every keyword."""
    out: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            out.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 {"**"} if None in keywords else keywords))
    return out


def unset_options(package: Path, tests: Path) -> list[str]:
    """`module.function.parameter` of each defaulted parameter of a public
    function or method that no call in the package or its tests passes."""
    calls = _calls(sorted(package.glob("*.py")) + sorted(tests.glob("*.py")))
    unset = []
    for qualname, fn, skipped in _public_functions(package):
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        options = [(arg.arg, i - skipped) for i, arg in enumerate(positional) if i >= first_default]
        options += [(arg.arg, None) for arg, default
                    in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        for name, position in options:
            if not any(name in keywords or "**" in keywords
                       or (position is not None and n_args > position)
                       for n_args, keywords in calls.get(fn.name, [])):
                unset.append(f"{qualname}.{name}")
    return sorted(set(unset) - UNSET_OPTIONS_ALLOWED)


def test_every_option_is_set_by_some_call():
    assert unset_options(PACKAGE, TESTS) == []
