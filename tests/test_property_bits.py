"""Property tests for the chunked sparse bitset.

Every :class:`~repro.hb.bits.SparseBits` operation is checked against
the Python big-int bitset it replaces: whatever a plain ``int`` says
about a union, subset test, popcount, membership probe, range probe,
or iteration order, the chunked representation must say too.  The
copy-on-write discipline gets its own properties: ``copy()`` shares
chunk objects by reference, and mutating either side afterwards never
leaks into the other.

Index strategies deliberately straddle chunk boundaries (multiples of
``CHUNK_BITS`` plus or minus a little) so the first/interior/last
block handling of ``any_in_range`` and the dense-chunk fast paths see
real traffic, not just small indices inside block zero.
"""

from hypothesis import given, settings, strategies as st

from repro.hb.bits import CHUNK_BITS, FULL_CHUNK, SparseBits, vector_stats

#: indices clustered around chunk boundaries as well as spread wide
index_st = st.one_of(
    st.integers(min_value=0, max_value=4 * CHUNK_BITS + 5),
    st.builds(
        lambda block, off: block * CHUNK_BITS + off,
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-2, max_value=2).map(lambda d: d % CHUNK_BITS),
    ),
)

indices_st = st.lists(index_st, max_size=80)


def as_int(indices):
    value = 0
    for i in indices:
        value |= 1 << i
    return value


@settings(max_examples=300, deadline=None)
@given(indices_st)
def test_construction_roundtrip(indices):
    model = as_int(indices)
    bits = SparseBits.from_indices(indices)
    assert bits.to_int() == model
    assert SparseBits.from_int(model) == bits
    assert bits == model  # __eq__ vs int compares the bit pattern
    assert bits.bit_count() == bin(model).count("1")
    assert bool(bits) == bool(model)
    # No zero chunks are ever stored — the core invariant.
    assert all(chunk for chunk in bits.chunks.values())


@settings(max_examples=300, deadline=None)
@given(indices_st, index_st)
def test_membership_matches_int(indices, probe):
    model = as_int(indices)
    bits = SparseBits.from_indices(indices)
    assert bits.test(probe) == bool(model >> probe & 1)
    assert (probe in bits) == bool(model >> probe & 1)


@settings(max_examples=300, deadline=None)
@given(indices_st, index_st)
def test_set_matches_int(indices, extra):
    model = as_int(indices) | (1 << extra)
    bits = SparseBits.from_indices(indices)
    bits.set(extra)
    assert bits == model


@settings(max_examples=300, deadline=None)
@given(indices_st, indices_st)
def test_union_matches_int(a, b):
    model_a, model_b = as_int(a), as_int(b)
    bits_a = SparseBits.from_indices(a)
    bits_b = SparseBits.from_indices(b)
    gained = bits_a.ior(bits_b)
    union = model_a | model_b
    assert bits_a == union
    assert bits_b == model_b  # the right-hand side is never touched
    # ior reports exactly the newly-set bit count (the incremental
    # closure's bits_propagated counter rides on this).
    assert gained == bin(union).count("1") - bin(model_a).count("1")


@settings(max_examples=300, deadline=None)
@given(indices_st, indices_st)
def test_subset_and_intersects_match_int(a, b):
    model_a, model_b = as_int(a), as_int(b)
    bits_a = SparseBits.from_indices(a)
    bits_b = SparseBits.from_indices(b)
    assert bits_a.issubset(bits_b) == (model_a & ~model_b == 0)
    assert bits_a.intersects(bits_b) == (model_a & model_b != 0)
    assert bits_a.and_count(bits_b) == bin(model_a & model_b).count("1")


@settings(max_examples=300, deadline=None)
@given(indices_st, indices_st)
def test_iteration_matches_int(a, b):
    bits_a = SparseBits.from_indices(a)
    bits_b = SparseBits.from_indices(b)
    model_and = as_int(a) & as_int(b)
    assert list(bits_a) == sorted(set(a))
    # and_iter yields the intersection in ascending index order.
    assert list(bits_a.and_iter(bits_b)) == [
        i for i in sorted(set(a)) if model_and >> i & 1
    ]


@settings(max_examples=300, deadline=None)
@given(indices_st, index_st, index_st)
def test_any_in_range_matches_int(indices, x, y):
    lo, hi = min(x, y), max(x, y) + 1
    model = as_int(indices)
    bits = SparseBits.from_indices(indices)
    window = model >> lo & ((1 << (hi - lo)) - 1)
    assert bits.any_in_range(lo, hi) == bool(window)


@settings(max_examples=200, deadline=None)
@given(indices_st)
def test_dense_chunks_survive_roundtrip(indices):
    # Force a fully-dense block alongside the random contents.
    bits = SparseBits.from_indices(indices)
    bits.ior(SparseBits.from_int(FULL_CHUNK << CHUNK_BITS))
    model = as_int(indices) | (FULL_CHUNK << CHUNK_BITS)
    assert bits == model
    assert bits.chunks[1] == FULL_CHUNK


class TestCopyOnWrite:
    @settings(max_examples=200, deadline=None)
    @given(indices_st, index_st)
    def test_mutating_a_copy_leaves_the_source_intact(self, indices, extra):
        source = SparseBits.from_indices(indices)
        model = source.to_int()
        clone = source.copy()
        clone.set(extra)
        clone.ior(SparseBits.single(extra + CHUNK_BITS))
        assert source == model  # untouched despite shared chunks
        assert clone == model | (1 << extra) | (1 << (extra + CHUNK_BITS))

    @settings(max_examples=200, deadline=None)
    @given(indices_st, indices_st)
    def test_ior_adopts_chunks_by_reference(self, a, b):
        bits_a = SparseBits.from_indices(a)
        bits_b = SparseBits.from_indices(b)
        bits_a.ior(bits_b)
        # Blocks the receiver lacked are adopted, not copied: the two
        # tables now hold the identical chunk objects there.
        a_blocks = {i // CHUNK_BITS for i in a}
        for block, chunk in bits_b.chunks.items():
            if block not in a_blocks:
                assert bits_a.chunks[block] is chunk

    def test_vector_stats_counts_shared_chunks_once(self):
        base = SparseBits.from_indices([1, CHUNK_BITS + 2])
        clone = base.copy()
        clone.set(2 * CHUNK_BITS + 3)
        stats = vector_stats([base, clone])
        assert stats.sets == 2
        assert stats.chunk_refs == 5
        assert stats.chunks_allocated == 3  # two shared + one private
        assert stats.chunks_shared == 2
