"""The one draw the derandomized property tests make: a seed.

Hypothesis mixes numeric and string literals of every imported local
module into its draws (``providers._maybe_draw_constant``), even under
``derandomize=True``, so a literal edited anywhere in ``src/`` would change
which examples a property checks.  Each property therefore draws only an
8-byte seed, a choice type no literal of this repository occupies
(``tests/test_draws.py`` checks that), and builds its example with a numpy
``Generator``.  Its examples are then a function of its own code alone.
"""

from hypothesis import strategies as st

SEEDS = st.binary(min_size=8, max_size=8).map(lambda b: int.from_bytes(b, "little"))
