import numpy as np
import pytest

from ltpsid import fixtures
from ltpsid.errors import DataError
from ltpsid.fileio import save_model
from ltpsid.model import dc_gain, is_stable


def test_fixture_names_load_and_are_stable():
    for name in fixtures.FIXTURE_NAMES:
        for normalize in (False, True):
            model = fixtures.resolve_model(name, normalize=normalize)
            assert is_stable(model).stable
            if normalize:
                np.testing.assert_allclose(dc_gain(model), 1.0, atol=1e-10)


def test_unknown_fixture_rejected(tmp_path, monkeypatch):
    # A name that is not a fixture is read as a path, and no such file exists.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DataError, match="example9"):
        fixtures.resolve_model("example9")


def test_resolve_model_fixture_and_path(tmp_path, example2_norm):
    model = fixtures.resolve_model("example2", normalize=True)
    np.testing.assert_allclose(dc_gain(model), 1.0, atol=1e-10)
    path = save_model(example2_norm, tmp_path / "m.json")
    loaded = fixtures.resolve_model(str(path))
    assert loaded.P == 3
