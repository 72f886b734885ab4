"""README's Python API list names what `import paraloq` exports, module by module."""

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
