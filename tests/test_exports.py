"""The package's export list."""

import tvdist


def test_every_export_resolves_once():
    names = tvdist.__all__
    assert len(set(names)) == len(names), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(tvdist, name)]
    assert missing == [], f"__all__ names that the package does not define: {missing}"
