"""Property test of the named presets: a preset string with any numbers in
it builds a probability measure or raises one InputError, and never warns.

Atom counts between 64 and ``MAX_ATOMS`` are left out for time; counts
above ``MAX_ATOMS`` are refused before any array is built."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

import agefire as af

ANY_FLOAT = st.floats()  # NaN and both infinities included
MAX_ATOMS = af.measures.MAX_ATOMS
COUNT = st.one_of(st.floats(max_value=64), st.integers(max_value=64),
                  st.floats(min_value=MAX_ATOMS + 1),
                  st.integers(min_value=MAX_ATOMS + 1))


def _built(preset: str) -> bool:
    """Whether ``from_named(preset)`` builds a measure; an InputError is
    False, and any other error or any warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = af.from_named(preset)
        except af.InputError:
            return False
    assert abs(m.total_mass() - 1.0) <= 1e-12
    return True


@pytest.mark.parametrize("name", ["dirac", "twoatom", "threeatom"])
@settings(max_examples=100, deadline=None, database=None)
@given(a=ANY_FLOAT)
def test_one_number_presets_build_or_raise_input_error(name, a):
    _built(f"{name}:{a!r}")


@settings(max_examples=200, deadline=None, database=None)
@given(n_atoms=COUNT, truncation=ANY_FLOAT)
def test_fixed_point_preset_builds_or_raises_input_error(n_atoms, truncation):
    built = _built(f"fixedpoint:{n_atoms!r},{truncation!r}")
    # a truncation T keeps tanh(T / 2) of the mass, >= 1 - 1e-6 from T ~ 14.5
    count_ok = 1 <= n_atoms <= MAX_ATOMS and float(n_atoms).is_integer()
    if not (count_ok and truncation >= 14.0):
        assert not built
    elif truncation >= 15.0:
        assert built
