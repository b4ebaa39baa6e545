"""Properties of RNG substream derivation.

Replicate seeds, and any other substream keyed on a cell such as
(mechanism, ζtarget, replicate), come from
:func:`repro.sim.rng.derive_seed`.  Determinism under parallelism
needs two properties (see :mod:`repro.experiments.parallel`):

* distinct keys never collide (cells stay independent), and
* derivation is a pure function of (base seed, key) — deriving keys
  in any order, or any subset, yields the same seeds.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.parallel import replicate_seed
from repro.sim.rng import RandomStreams, derive_seed

MECHANISMS = ("SNIP-AT", "SNIP-OPT", "SNIP-RH")

base_seeds = st.integers(min_value=0, max_value=2**31 - 1)

cell_keys = st.tuples(
    st.sampled_from(MECHANISMS),
    st.floats(min_value=1.0, max_value=128.0, allow_nan=False),
    st.integers(min_value=0, max_value=10_000),
)


@given(base_seeds, cell_keys, cell_keys)
def test_distinct_cell_keys_never_collide(base_seed, key_a, key_b):
    if key_a == key_b:
        assert derive_seed(base_seed, *key_a) == derive_seed(base_seed, *key_b)
    else:
        assert derive_seed(base_seed, *key_a) != derive_seed(base_seed, *key_b)


@given(base_seeds, st.lists(cell_keys, unique=True, min_size=2, max_size=8))
def test_derivation_is_insensitive_to_order(base_seed, keys):
    forward = [derive_seed(base_seed, *key) for key in keys]
    backward = [derive_seed(base_seed, *key) for key in reversed(keys)]
    assert forward == list(reversed(backward))
    # Deriving a single key in isolation agrees with deriving it amid
    # the full batch: no hidden stream is being consumed.
    for key, seed in zip(keys, forward):
        assert derive_seed(base_seed, *key) == seed


@given(base_seeds, cell_keys)
def test_derived_seed_depends_on_base_seed(base_seed, key):
    assert derive_seed(base_seed, *key) != derive_seed(base_seed + 1, *key)


@given(base_seeds, st.integers(min_value=1, max_value=10_000))
def test_replicate_seed_anchors_replicate_zero(base_seed, replicate):
    assert replicate_seed(base_seed, 0) == base_seed
    assert replicate_seed(base_seed, replicate) != base_seed or replicate == 0


@given(base_seeds, st.lists(st.integers(min_value=0, max_value=500),
                            unique=True, min_size=2, max_size=6))
def test_replicate_seeds_are_distinct(base_seed, replicates):
    seeds = [replicate_seed(base_seed, r) for r in replicates]
    assert len(set(seeds)) == len(seeds)


@given(base_seeds, st.text(min_size=1, max_size=20),
       st.text(min_size=1, max_size=20))
def test_derive_seed_separates_key_parts(base_seed, part_a, part_b):
    # ("ab", "c") and ("a", "bc") must not alias: parts are
    # length-prefix encoded, not concatenated.
    joined_left = derive_seed(base_seed, part_a + part_b)
    split = derive_seed(base_seed, part_a, part_b)
    if part_b and part_a:
        assert split != joined_left


def test_derive_seed_part_content_cannot_fake_a_boundary():
    # A part embedding any would-be separator byte must not alias the
    # genuinely split key (regression for delimiter-based joining).
    for separator in ("\x1f", "\x00", ","):
        assert derive_seed(0, f"a{separator}b") != derive_seed(0, "a", "b")


@given(base_seeds, cell_keys)
def test_derived_streams_are_usable_and_reproducible(base_seed, key):
    seed = derive_seed(base_seed, *key)
    first = RandomStreams(seed).stream("trace").random()
    second = RandomStreams(seed).stream("trace").random()
    assert first == second
