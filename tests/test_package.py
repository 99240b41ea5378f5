"""The package namespace re-exports every public name of its modules."""

import isbound
from isbound import bounds, divergences, gaussian, sampling

MODULES = (bounds, divergences, gaussian, sampling)


def test_namespace_is_the_union_of_the_module_exports():
    assert isbound.__all__ == sorted({name for m in MODULES for name in m.__all__})
    for module in MODULES:
        for name in module.__all__:
            assert getattr(isbound, name) is getattr(module, name), (module.__name__, name)
