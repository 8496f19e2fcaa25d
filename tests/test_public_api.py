"""The declared public surface: ``agefire.__all__`` is a written-out list,
and ``from agefire import *`` binds exactly its names."""

import dataclasses
import types

import agefire as af


def test_all_is_sorted_and_unique():
    assert af.__all__ == sorted(set(af.__all__))
    assert len(af.__all__) == 55


def test_every_name_is_an_object_not_a_module():
    for name in af.__all__:
        assert not isinstance(getattr(af, name), types.ModuleType), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from agefire import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(af.__all__)


def test_deleted_names_are_unreachable():
    assert not hasattr(af, "from_atoms")
    assert not hasattr(af.measures, "from_atoms")
    for method in ("tilt", "cdf", "tail_mass"):
        assert not hasattr(af.AgeMeasure, method)
    fields = [f.name for f in dataclasses.fields(af.EvolveOptions)]
    assert fields == ["dt", "checkpoints", "merge_eps", "lambda_drift_budget"]
