import ast
import pathlib

import hardyspec
from hardyspec.errors import HardySpecError, InvalidParameter

BUILTINS = {"ValueError", "TypeError", "RuntimeError"}


def _bare_raises(source):
    """Line numbers and names of every `raise` of a builtin ValueError,
    TypeError or RuntimeError, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTINS:
                found.append((node.lineno, exc.id))
    return sorted(found)


def test_the_guard_sees_each_form():
    source = ("def f(x):\n    if x:\n        raise ValueError('x')\n"
              "    raise TypeError\n\ntry:\n    pass\nexcept KeyError:\n"
              "    raise RuntimeError('y') from None\nraise KeyError('z')\n")
    assert _bare_raises(source) == [(3, "ValueError"), (4, "TypeError"),
                                    (9, "RuntimeError")]


def test_library_raises_only_typed_errors():
    # a bare builtin raise escapes cli.main as a traceback, exit 1, the
    # status of an INCONCLUSIVE verdict; every refusal must be a
    # HardySpecError, InvalidParameter for a parameter out of range
    package = pathlib.Path(hardyspec.__file__).parent
    found = [f"{path.name}:{line} raise {name}"
             for path in sorted(package.glob("*.py"))
             for line, name in _bare_raises(path.read_text())]
    assert found == []


def test_invalid_parameter_is_a_value_error():
    assert issubclass(InvalidParameter, HardySpecError)
    assert issubclass(InvalidParameter, ValueError)
