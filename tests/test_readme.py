"""README's Python API list names what `import paraloq` exports, module by
module, and each call its code spans write names something that exists."""

import builtins
import importlib
import math
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import paraloq
from paraloq import ParaloqError, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def api_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("### Python API", 1)[1].split("\n#", 1)[0]


def listed_exports() -> dict:
    """module -> the names its bullet lists: the backticked names before the
    bullet's first ';' or '.', parenthesized remarks left out."""
    lists = {}
    for module, body in re.findall(r"^\* `(\w+)`: (.*?)(?=^\* |\Z)", api_section(), re.M | re.S):
        head = re.split(r"[;.]", re.sub(r"\([^()]*\)", "", body), maxsplit=1)[0]
        lists[module] = re.findall(r"`(\w+)`", head)
    return lists


def exported_names() -> set:
    # the submodules are bound too, by the imports; the bullets name them
    return {
        name for name, value in vars(paraloq).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_each_export_is_listed_under_its_own_module_and_nothing_else_is():
    lists = listed_exports()
    listed = [name for names in lists.values() for name in names]
    assert sorted(listed) == sorted(exported_names())  # once each, and no name paraloq lacks
    for module, names in lists.items():
        for name in names:
            assert getattr(paraloq, name).__module__ == f"paraloq.{module}", name


def test_each_listed_error_gives_the_exit_code_the_cli_maps_it_to():
    errors = [name for name in listed_exports()["errors"] if issubclass(getattr(paraloq, name), ParaloqError)]
    stated = dict(re.findall(r"`(\w+)`\s+\(exit (\d+)\)", api_section()))
    for name in errors:
        cls = getattr(paraloq, name)
        code = next((code for types, code in cli._EXIT_CODES if issubclass(cls, types)), cli.EXIT_USAGE)
        assert stated.get(name) == str(code), name


def unresolved_calls(text: str) -> list:
    """Each `name(` or `a.b(` inside an inline code span of text that is not
    an attribute of a paraloq submodule, a builtin or a math function; a
    dotted name is looked up along its dots."""
    submodules = {
        info.name: importlib.import_module(f"paraloq.{info.name}") for info in pkgutil.iter_modules(paraloq.__path__)
    }
    scopes = [submodules, *map(vars, submodules.values()), vars(builtins), vars(math)]
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    missing = []
    for span in re.findall(r"`([^`]+)`", prose):
        for dotted in re.findall(r"([A-Za-z_][\w.]*)\(", span):
            head, *rest = dotted.split(".")
            if not any(_has_path(scope[head], rest) for scope in scopes if head in scope):
                missing.append(dotted)
    return missing


def _has_path(obj, names) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_each_call_in_a_code_span_names_something_that_exists():
    assert unresolved_calls(README.read_text(encoding="utf-8")) == []
