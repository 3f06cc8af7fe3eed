"""The package's public surface: what `locc_lab.__all__` promises."""

import locc_lab


def test_every_exported_name_resolves():
    for name in locc_lab.__all__:
        assert getattr(locc_lab, name) is not None, name


def test_test_oracles_are_not_exported():
    exported = set(locc_lab.__all__) | set(vars(locc_lab))
    assert not [name for name in exported if name.endswith("_dense")]
    assert not exported & {"OracleCapExceeded", "DEFAULT_ORACLE_CAP"}
