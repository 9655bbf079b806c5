import ctcsim

#: Names the package no longer has; none may come back through the export list.
RETIRED = ("MeasurementResult", "measure_projective", "embed", "save_array")


def test_every_exported_name_resolves_once():
    assert len(set(ctcsim.__all__)) == len(ctcsim.__all__)
    missing = [name for name in ctcsim.__all__ if not hasattr(ctcsim, name)]
    assert missing == []


def test_retired_names_are_not_exported():
    assert [name for name in RETIRED if name in ctcsim.__all__ or hasattr(ctcsim, name)] == []
