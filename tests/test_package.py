"""The package's public names, resolved on first access."""

import ast
import sys
from pathlib import Path

import pytest

import spgraphs
from spgraphs import core, transform


@pytest.mark.parametrize("name", spgraphs.__all__)
def test_name_is_the_defining_modules_object(name):
    value = getattr(spgraphs, name)
    assert value.__module__.startswith("spgraphs.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spgraphs import *", namespace)
    for name in spgraphs.__all__:
        assert namespace[name] is getattr(spgraphs, name)


def test_dir_lists_every_public_name():
    listed = dir(spgraphs)
    assert listed == sorted(listed)
    assert set(spgraphs.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError) as err:
        spgraphs.no_such_name
    assert str(err.value) == "module 'spgraphs' has no attribute 'no_such_name'"
    assert not hasattr(spgraphs, "no_such_name")


def test_transform_re_exports_the_types_documents_read():
    assert transform.TransformResult is core.TransformResult
    assert transform.ResamplingExhaustedError is core.ResamplingExhaustedError
    assert spgraphs.TransformResult is core.TransformResult


def test_core_imports_nothing_from_transform():
    # transform builds on core; core holds every type a result carries
    tree = ast.parse(Path(core.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        names = [getattr(node, "module", None) or ""] + [
            alias.name for alias in node.names]
        parts = {part for name in names for part in name.split(".")}
        assert "transform" not in parts, ast.unparse(node)
