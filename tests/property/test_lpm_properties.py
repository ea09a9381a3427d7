"""Property-based tests for longest-prefix-match FIB resolution.

The LPM index :class:`repro.prefixes.trie.RadixTrie` behind
:mod:`repro.dataplane.fib` is checked against the brute-force
linear scan :func:`repro.prefixes.longest_match` over random prefix
populations, including the cover/specific shadowing transitions that
aggregation and deaggregation events walk through.
"""

from hypothesis import example, given, strategies as st

from repro.dataplane import MultiPrefixFib
from repro.prefixes import ADDRESS_SPACE, PrefixSpec, longest_match, parse_prefix
from repro.prefixes.trie import RadixTrie

# Canonical random prefixes: draw (value, length) and mask host bits.
prefix_specs = st.builds(
    lambda raw, length: PrefixSpec(
        raw & PrefixSpec(0, length).network_mask if length else 0, length
    ),
    st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
    st.integers(min_value=0, max_value=32),
)

addresses = st.integers(min_value=0, max_value=ADDRESS_SPACE - 1)


DEFAULT_AND_HOSTS = [
    PrefixSpec(0, 0),
    PrefixSpec(0x0A000001, 32),
    PrefixSpec(0xFFFFFFFF, 32),
]
TOP_OF_SPACE = [PrefixSpec(0xFFFFFF00, 24), PrefixSpec(0xFFFFFFFF, 32)]


@given(st.lists(prefix_specs, max_size=40), addresses)
@example(specs=DEFAULT_AND_HOSTS, address=0x0A000001)
@example(specs=DEFAULT_AND_HOSTS, address=0x0A000002)  # falls back to /0
@example(specs=DEFAULT_AND_HOSTS, address=0xFFFFFFFF)
@example(specs=TOP_OF_SPACE, address=0xFFFFFFFE)
@example(specs=TOP_OF_SPACE, address=0xFFFFFFFF)
@example(specs=TOP_OF_SPACE, address=0xFFFFFEFF)
def test_trie_lookup_agrees_with_brute_force(specs, address):
    trie = RadixTrie()
    table = {}
    for payload, spec in enumerate(specs):
        trie.insert(spec, payload)
        table[spec] = payload  # duplicate specs: last payload wins, both sides
    expected = longest_match(list(table.items()), address)
    got = trie.lookup(address)
    if expected is None:
        assert got is None
    else:
        # Equal-length matches containing one address are the same prefix,
        # so the matched spec is unique even if payloads collide.
        assert got is not None
        assert got[0] == expected[0]
        assert got[1] == table[got[0]]


@given(st.lists(prefix_specs, min_size=1, max_size=30), st.data())
def test_trie_removal_agrees_with_brute_force(specs, data):
    trie = RadixTrie()
    table = {}
    for payload, spec in enumerate(specs):
        trie.insert(spec, payload)
        table[spec] = payload
    to_remove = data.draw(
        st.lists(st.sampled_from(sorted(table, key=str)), unique=True, max_size=10)
    )
    for spec in to_remove:
        assert trie.remove(spec)
        assert not trie.remove(spec)  # second removal is a no-op
        del table[spec]
    assert len(trie) == len(table)
    for address in data.draw(st.lists(addresses, min_size=1, max_size=20)):
        expected = longest_match(list(table.items()), address)
        got = trie.lookup(address)
        assert (got[0] if got else None) == (expected[0] if expected else None)


@given(
    st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
    st.integers(min_value=0, max_value=28),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_cover_specific_shadowing_through_deaggregation(raw, length, bits, data):
    """Walk an aggregate→deaggregate cycle and check every intermediate state.

    A cover plus its 2^k specifics go in; specifics are withdrawn one at a
    time (the aggregation event's intermediate states).  At every step, any
    address under a live specific resolves to it, and any address whose
    specific is gone falls back to the cover — per the brute-force oracle.
    """
    cover = PrefixSpec(
        raw & PrefixSpec(0, length).network_mask if length else 0, length
    )
    specifics = cover.split(bits)
    fib = MultiPrefixFib()
    node = 0
    fib.set_entry(node, str(cover), 100)
    live = {}
    for i, spec in enumerate(specifics):
        fib.set_entry(node, str(spec), 200 + i)
        live[spec] = 200 + i

    def check():
        oracle = [(cover, 100)] + sorted(live.items(), key=lambda e: str(e[0]))
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=cover.size - 1),
                min_size=1,
                max_size=8,
            )
        )
        for offset in probes:
            address = cover.value + offset
            expected = longest_match(oracle, address)
            got = fib.resolve(node, address)
            assert got is not None and expected is not None
            assert got == (str(expected[0]), expected[1])

    check()
    for spec in specifics:  # deaggregated -> withdraw specifics one by one
        fib.set_entry(node, str(spec), None)
        del live[spec]
        check()
    # Fully re-aggregated: only the cover remains; it matches everywhere.
    for offset in (0, cover.size - 1):
        assert fib.resolve(node, cover.value + offset) == (str(cover), 100)
    # Split again: the specifics' length, emptied above, is probed anew.
    for i, spec in enumerate(specifics):
        fib.set_entry(node, str(spec), 300 + i)
        live[spec] = 300 + i
        check()


@given(st.lists(prefix_specs, max_size=20), addresses)
def test_withdrawn_entries_never_shadow(specs, address):
    """A next_hop=None entry deletes — an unreachable specific must not
    shadow a reachable cover."""
    fib = MultiPrefixFib()
    for payload, spec in enumerate(specs):
        fib.set_entry(0, str(spec), payload)
        fib.set_entry(0, str(spec), None)
    assert fib.resolve(0, address) is None


def test_opaque_prefixes_are_exact_and_disjoint():
    fib = MultiPrefixFib()
    fib.set_entry(0, "dest", 7)
    fib.set_entry(0, "0a000000/8", 9)
    assert fib.resolve(0, "dest") == ("dest", 7)
    assert fib.resolve(0, "other") is None
    # Opaque names never capture structured lookups and vice versa.
    assert fib.resolve(0, 0x0A000001) == ("0a000000/8", 9)
    assert parse_prefix("dest") is None
