"""The benchmark under perfbench/ imports and hooks library names; each must exist."""

import pytest

from perfbench import bench, checks, tracer, workloads  # noqa: F401  (the imports are the test)


@pytest.mark.parametrize("name", sorted(tracer.HOOKS))
def test_hook_target_resolves(name):
    module, path = tracer.HOOKS[name]
    assert tracer._resolve(module, path) is not None, f"{module}.{path} is gone"
