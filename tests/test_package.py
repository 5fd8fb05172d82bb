"""The package's public names."""

import fillreduce


def test_every_export_resolves_once():
    names = fillreduce.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fillreduce, name)]
    assert missing == []
