import dpcdenoise


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dpcdenoise import *", namespace)
    missing = [name for name in dpcdenoise.__all__ if name not in namespace]
    assert not missing
    assert len(set(dpcdenoise.__all__)) == len(dpcdenoise.__all__)
