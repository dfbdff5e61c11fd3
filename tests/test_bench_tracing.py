"""The benchmark tracer patches program names by their import path; every
one of them must still exist, or a traced run breaks silently."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,where,attr", _targets())
def test_traced_name_resolves(span, where, attr):
    module_name, _, cls_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if cls_name:
        owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{span}: {where}.{attr}"
    else:
        assert hasattr(owner, attr), f"{span}: {where}.{attr}"
