"""Every top-level public function and class of the package has a use inside
the package, every option of a top-level function (public or private) or
of a public method and every defaulted field of a public dataclass is set
by some statement of the package to more than one value, and every field
of a public dataclass is read by some statement of the package, so neither
code that only its own tests reach, nor knobs that only a test turns or
that take a single value, nor results that nothing reads grow back."""

import ast
from pathlib import Path

import zetalab

PACKAGE = Path(zetalab.__file__).parent
CLI_ENTRY_POINT = ("cli", "main")
# option -> why it stays although no package statement sets it
UNSET_OPTIONS_ALLOWED = {
    "zeta.zeta_euler_maclaurin.cutoff":
        "perfbench's hook reads `cutoff` from the bound arguments",
    "barrier.bridge_survival_dp.mesh":
        "tests check the default mesh against a finer one (200 against 420)",
    "mollifier.mollifier_approx_check.omega_cap":
        "the mollifier capped at omega prime factors is the module's object",
    "cli.main.argv":
        "the console script calls main() with no arguments, so argparse reads sys.argv",
}
# dataclasses the package writes out whole with `asdict`, not field by field
WRITTEN_WHOLE = ("experiments.ExperimentConfig", "experiments.ResultRecord")


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


def _functions(package: Path):
    """(`module.qualified_name`, function node, leading parameters a call does
    not pass: `self` or `cls`) for each top-level function, public or
    private, and each public method of a public class."""
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{path.stem}.{stmt.name}", stmt, 0
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{path.stem}.{stmt.name}.{fn.name}", fn, 1


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _dataclass_fields(package: Path):
    """(`module.Class.field`, class name, field name, position in the
    constructor, default or None) for each field of a public dataclass."""
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not (isinstance(stmt, ast.ClassDef) and _is_dataclass(stmt)) \
                    or stmt.name.startswith("_"):
                continue
            fields = [f for f in stmt.body if isinstance(f, ast.AnnAssign)]
            for position, f in enumerate(fields):
                yield (f"{path.stem}.{stmt.name}.{f.target.id}", stmt.name, f.target.id,
                       position, f.value)


def _calls(paths) -> dict[str, list[ast.Call]]:
    """Called name -> its calls.  A call of the first parameter of a
    classmethod (`cls(...)`) counts as a call of its class."""
    out: dict[str, list] = {}

    def record(name, node):
        out.setdefault(name, []).append(node)

    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                record(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), node)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.args.args and any(
                            getattr(d, "id", None) == "classmethod" for d in fn.decorator_list):
                        cls = fn.args.args[0].arg
                        for call in ast.walk(fn):
                            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == cls:
                                record(node.name, call)
    return out


def _assigned_attributes(paths) -> set[str]:
    """Attribute names that some statement assigns (`x.name = ...`)."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            out.update(t.attr for t in targets if isinstance(t, ast.Attribute))
    return out


def _argument(call: ast.Call, name: str, position: int | None):
    """What `call` passes for a parameter: its expression, `...` when a
    `*args` or `**kwargs` may hold it, or None when the call passes nothing."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if any(kw.arg is None for kw in call.keywords):
        return ...
    if position is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return ...
            if i == position:
                return arg
    return None


def _literal(node) -> str | None:
    """repr of the value of a literal expression, or None for anything else."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):   # a name, a call, or `...`
        return None


def unset_options(package: Path) -> list[str]:
    """`module.function.parameter` of each defaulted parameter of a top-level
    function (public or private) or of a public method, and
    `module.Class.field` of each defaulted field of a public dataclass that
    no statement of the package assigns, when no call in the package passes
    it, or when every call gives it one and the same literal (a call that
    passes nothing counts with the default).  Calls from
    tests do not count: an option only a test sets is a knob, and one that
    the package sets to a single value is a constant."""
    paths = sorted(package.glob("*.py"))
    calls = _calls(paths)

    def unset(callee, name, position, default):
        args = [_argument(call, name, position) for call in calls.get(callee, [])]
        if all(arg is None for arg in args):
            return True
        values = {_literal(default if arg is None else arg) for arg in args}
        return len(values) == 1 and None not in values

    out = []
    for qualname, fn, skipped in _functions(package):
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        options = [(arg.arg, i - skipped, fn.args.defaults[i - first_default])
                   for i, arg in enumerate(positional) if i >= first_default]
        options += [(arg.arg, None, default) for arg, default
                    in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        out += [f"{qualname}.{name}" for name, position, default in options
                if unset(fn.name, name, position, default)]
    assigned = _assigned_attributes(paths)
    out += [qualname for qualname, cls, name, position, default in _dataclass_fields(package)
            if default is not None and name not in assigned
            and unset(cls, name, position, default)]
    return sorted(set(out))


def unread_fields(package: Path) -> list[str]:
    """`module.Class.field` of each field of a public dataclass whose name no
    statement of the package loads as an attribute (`x.field`), outside the
    classes the package writes out whole."""
    read = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(qualname for qualname, _, name, _, _ in _dataclass_fields(package)
                  if name not in read and qualname.rsplit(".", 1)[0] not in WRITTEN_WHOLE)


def test_every_option_is_set_by_some_call():
    assert sorted(set(unset_options(PACKAGE)) - set(UNSET_OPTIONS_ALLOWED)) == []


def test_every_allowance_names_an_unset_option():
    # an entry whose option is gone or now set would let a knob back in unseen
    assert sorted(set(UNSET_OPTIONS_ALLOWED) - set(unset_options(PACKAGE))) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(PACKAGE) == []


def _names_longdouble(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "longdouble")
            or (isinstance(node, ast.Attribute) and node.attr == "longdouble")
            or (isinstance(node, ast.alias) and node.name == "longdouble")
            or (isinstance(node, ast.Constant) and node.value == "longdouble"))


def test_only_walk_names_longdouble():
    # the extended format's bits depend on the platform; README keeps it inside `walk`
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if any(map(_names_longdouble, ast.walk(ast.parse(path.read_text()))))]
    assert naming == ["walk.py"]


def test_no_global_statement_outside_parallel():
    # process-wide tables are `functools.cache`s of a function of their index
    # (walk's log and Bessel chunks, zeta's contour lattice); only the shared
    # pool is created and replaced by hand
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.stem != "parallel"
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Global)]
    assert found == []
