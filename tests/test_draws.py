"""The derandomized properties draw the same examples whatever literals
``src/`` holds (see ``draws.py``).

Each property's examples are recorded by replaying its draws around a
recorder that stands in for its body: the same strategy, settings and
source digest (which seeds a derandomized run), so the same examples.
They are recorded once as the suite draws them and once with extra
literals, in range of the old draws, added to the constants hypothesis
collects from local modules.  An integer seed drawn directly is the
control: the same added literals change its examples, so the check has
teeth.  The control records both lists against a pinned pool of local
constants, so its outcome depends on its own literals, not on which local
modules earlier tests happened to import.
"""

import functools
import inspect

import pytest
import test_cli
import test_closed_loop_properties
import test_compiled_cascade
import test_filters
import test_linear_block
import test_refdyn
from draws import SEEDS
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

PROPERTIES = {
    "compiled_rows": test_compiled_cascade.test_compiled_rows_match_cascade_rates,
    "oracle": test_refdyn.TestRealizationEquivalence.test_matches_oracle_on_random_stable_sets,
    "bank_maps": test_linear_block.test_block_from_the_bank_maps_matches_the_bank,
    "law_outputs": test_linear_block.test_outputs_match_the_banks,
    "law_filter_rates": test_linear_block.test_derivative_matches_the_banks,
    "law_state_rates": test_linear_block.test_state_rates_match_their_definitions,
    "malformed_arguments": test_cli.test_malformed_arguments_exit_2,
    "bank_derivatives": test_filters.test_output_derivatives_match_the_derivative_maps,
    "closed_loop_residual": test_closed_loop_properties.test_closed_loop_residual_at_roundoff,
    "pid_forms": test_closed_loop_properties.test_pid_forms_give_one_torque,
}
COUNTS = {"compiled_rows": 150, "oracle": 20, "bank_maps": 60, "malformed_arguments": 60,
          "law_outputs": 25, "law_filter_rates": 25, "law_state_rates": 25,
          "bank_derivatives": 60, "closed_loop_residual": 8, "pid_forms": 30}
# the local constants the control draws against: integers in its range,
# as a repository's literals would be, and one of every other type
PINNED_POOL = Constants(integers={2, 16, 255, 1000, 86_400}, floats={0.5, 2.5},
                        bytes={b"pin"}, strings={"pin"})


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def _integer_seed_property(seed):
    pass


def _examples(prop):
    """The seeds ``prop`` draws, in order, without running its body."""
    seen = []
    inner = prop.hypothesis.inner_test

    # wraps: a derandomized run is seeded by a digest of the body's source
    @functools.wraps(inner)
    def record(*args, seed, **fixtures):
        seen.append(seed)

    replay = settings(prop._hypothesis_internal_use_settings)(
        given(**prop.hypothesis._given_kwargs)(record))
    # ``self`` and the fixtures a property takes do not enter its draws
    replay(*[None for name in inspect.signature(inner).parameters if name != "seed"])
    return seen


@pytest.fixture
def pinned_pool(monkeypatch):
    """Local constants fixed at ``PINNED_POOL``, whatever has been imported."""
    monkeypatch.setattr(providers, "_get_local_constants", lambda: PINNED_POOL)
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()


@pytest.fixture
def added_literals(monkeypatch):
    """Literals a ``src/`` edit might add: integers and floats inside the
    ranges the properties used to draw from, and a string."""
    local = providers._get_local_constants()
    extra = Constants(integers={1234, 65537, 4_000_000_000}, floats={0.3125, 1.2345, 2.75, -1.5},
                      bytes=set(), strings={"tone"})
    monkeypatch.setattr(providers, "_get_local_constants", lambda: local | extra)
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()


def test_no_repository_literal_is_a_seed():
    # the seed's choice type is 8 bytes; a literal of that type would be drawn
    local = providers._get_local_constants()
    assert not [b for b in local.bytes if len(b) == 8]


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_added_literals_leave_the_examples_unchanged(request, name):
    plain = _examples(PROPERTIES[name])
    assert len(plain) == COUNTS[name]
    request.getfixturevalue("added_literals")
    assert _examples(PROPERTIES[name]) == plain


def test_an_integer_seed_is_moved_by_added_literals(request, pinned_pool):
    plain = _examples(_integer_seed_property)
    assert len(plain) == 60
    request.getfixturevalue("added_literals")
    assert _examples(_integer_seed_property) != plain


def test_seed_strategy_is_the_only_draw():
    # every property draws exactly this strategy and nothing else
    for prop in PROPERTIES.values():
        assert prop.hypothesis._given_kwargs == {"seed": SEEDS}
