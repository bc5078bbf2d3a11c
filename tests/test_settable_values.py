"""Every settable value has a caller.

A defaulted parameter that no code in the package passes is a knob
nothing turns: its other values run only in tests.  This test parses
``src/gapboot`` and asserts that each defaulted parameter of a public
function or method is passed, by position or by keyword, at some call
site in the package.  A class's ``__init__`` is called through the class
name.
"""
import ast
import pathlib

import gapboot

_PACKAGE = pathlib.Path(gapboot.__file__).parent

#: (function, parameter) pairs set only from outside the package:
#: ``main(argv=None)`` reads the command line, and tests pass ``argv``.
EXEMPT = {("cli.main", "argv")}


def _defaulted(fn: ast.FunctionDef, offset: int):
    """Yield ``(name, position)`` for each defaulted parameter of ``fn``,
    ``position`` counting call arguments (None for keyword-only ones);
    ``offset`` is 1 for a method's ``self``."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - offset
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _public_functions(module: str, tree: ast.Module):
    """Yield ``(label, called_as, fn, offset)`` for each public function
    and method of a module, and each public class's ``__init__``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, 0
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    yield f"{module}.{node.name}", node.name, item, 1
                elif not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, 0 if static else 1


def _calls(tree: ast.Module):
    """Yield ``(name, positional count, keywords, splat)`` for each call;
    ``splat`` is true when a ``*`` or ``**`` argument may pass anything."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, len(node.args), keywords - {None}, starred or (None in keywords)


def unset_parameters(package: pathlib.Path) -> list[str]:
    """``module.function(parameter=...)`` for each defaulted parameter of
    a public function under ``package`` that no call there passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unset = []
    for module, tree in trees.items():
        for label, called_as, fn, offset in _public_functions(module, tree):
            for name, position in _defaulted(fn, offset):
                passed = any(
                    splat or name in keywords or (position is not None and count > position)
                    for callee, count, keywords, splat in calls
                    if callee == called_as
                )
                if not passed and (label, name) not in EXEMPT:
                    unset.append(f"{label}({name}=...)")
    return unset


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert unset_parameters(_PACKAGE) == []


def test_the_scan_sees_a_parameter_nobody_passes(tmp_path):
    # the check itself, on a copy of the package: defaulted parameters
    # added to a public function and passed nowhere are reported, and one
    # stops being reported once a call passes it by position
    for path in _PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    gb2 = tmp_path / "gb2.py"
    gb2.write_text(gb2.read_text().replace(
        "def gb2_variance(row_variances, sub: SubseriesEstimates)",
        "def gb2_variance(row_variances, sub: SubseriesEstimates, scale=1.0, *, shift=0.0)",
    ))
    assert unset_parameters(tmp_path) == [
        "gb2.gb2_variance(scale=...)", "gb2.gb2_variance(shift=...)"
    ]
    study = tmp_path / "study.py"
    call = "gb2_variance(rows.variances, sub"
    study.write_text(study.read_text().replace(call, call + ", 2.0"))
    assert unset_parameters(tmp_path) == ["gb2.gb2_variance(shift=...)"]
