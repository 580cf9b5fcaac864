"""The generated fixtures are what their generator writes."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "gen_fixtures", Path(__file__).parent / "fixtures" / "gen_fixtures.py")
gen_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_fixtures)


def test_regenerated_fixtures_equal_the_committed_bytes(tmp_path, fixtures_dir):
    gen_fixtures.main(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(gen_fixtures.GENERATED)
    for name in gen_fixtures.GENERATED:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
