"""Every defaulted parameter of the library has a caller that sets it.

An `ast` scan: each parameter with a default, of each `def` in
src/calibr/*.py, must be given a value other than its default by some call
in src/, perfbench/ or tests/.  A parameter that only ever takes its
default is a setting no caller uses, and belongs in a constant.

Calls are matched by the called name alone (a bare name or the last
attribute), so a method shares its callers with every function of that
name, and a class's __init__ takes the calls of the class name.  An
argument, by keyword or at the parameter's position, sets the parameter
unless it is a literal equal to the default or the default's own
expression.  Arguments passed through * or ** are not followed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# forwarding the scan cannot follow: "module.qualname.parameter" -> reason
FORWARDED = {
    "fields.ScalarField.__init__.poly":
        "ScalarField.from_polynomial passes poly= to cls(...)",
}


def _defaulted_parameters():
    """(key, called name, position or None, default node) of every
    defaulted parameter; the position leaves out self and cls."""
    out = []
    for path in sorted((ROOT / "src" / "calibr").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(f): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for f in cls.body}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            cls = owner.get(id(f))
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in f.decorator_list)
            called = cls if f.name == "__init__" else f.name
            prefix = f"{path.stem}.{cls + '.' if cls else ''}{f.name}"
            pos = f.args.posonlyargs + f.args.args
            for k, (arg, default) in enumerate(
                    zip(pos[::-1], f.args.defaults[::-1])):
                out.append((f"{prefix}.{arg.arg}", called,
                            len(pos) - 1 - k - method, default))
            out += [(f"{prefix}.{arg.arg}", called, None, default)
                    for arg, default in zip(f.args.kwonlyargs,
                                            f.args.kw_defaults)
                    if default is not None]
    return out


def _calls():
    """Every call in src/, perfbench/ and tests/, by called name."""
    out = {}
    for sub in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = getattr(fn, "id", getattr(fn, "attr", None))
                    out.setdefault(name, []).append(node)
    return out


def _is_default(value, default):
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
        return type(a) is type(b) and a == b
    except ValueError:
        return ast.unparse(value) == ast.unparse(default)


def _sets(call, name, position, default):
    for kw in call.keywords:
        if kw.arg == name.rsplit(".", 1)[1]:
            return not _is_default(kw.value, default)
    args = call.args
    if position is None or position >= len(args) or any(
            isinstance(a, ast.Starred) for a in args[:position + 1]):
        return False
    return not _is_default(args[position], default)


def test_every_defaulted_parameter_is_set_by_some_caller():
    params = _defaulted_parameters()
    calls = _calls()
    unset = [key for key, called, position, default in params
             if key not in FORWARDED
             and not any(_sets(c, key, position, default)
                         for c in calls.get(called, []))]
    assert not unset, (f"{len(unset)} parameters only ever take their "
                       "default:\n  " + "\n  ".join(unset))


def test_every_forwarding_entry_names_a_defaulted_parameter():
    keys = {key for key, *_ in _defaulted_parameters()}
    assert not set(FORWARDED) - keys
