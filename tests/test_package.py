"""The package namespace resolves its public names on first access."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import idealizer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_config_import_leaves_the_suite_unloaded():
    code = (
        "import sys, idealizer.config\n"
        "heavy = ['idealizer.' + m for m in ('suite', 'ext', 'segre', 'report')]\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == ""


def test_every_public_name_resolves():
    for name in idealizer.__all__:
        assert name in dir(idealizer)
        value = getattr(idealizer, name)
        if name != "__version__":
            source = import_module("idealizer." + idealizer._SOURCES[name])
            assert value is getattr(source, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        idealizer.no_such_name
