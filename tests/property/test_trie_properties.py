"""Property-based tests for the per-length hash-table LPM index itself.

:mod:`tests.property.test_lpm_properties` checks the index through the
FIB's longest-prefix-match surface; this module targets the other two
consumers of :class:`repro.prefixes.trie.RadixTrie` — containment
(``covered``, the specifics enumeration aggregation relies on) and
deterministic enumeration (``entries``) — against a brute-force dict
oracle under randomized populations, plus the exact-match dict semantics
(``insert`` replaces, ``remove`` clears, a length emptied and refilled).
"""

from hypothesis import example, given, strategies as st

from repro.prefixes import ADDRESS_SPACE, PrefixSpec
from repro.prefixes.trie import RadixTrie

prefix_specs = st.builds(
    lambda raw, length: PrefixSpec(
        raw & PrefixSpec(0, length).network_mask if length else 0, length
    ),
    st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
    st.integers(min_value=0, max_value=32),
)


def build(specs):
    """A trie and its dict oracle from an insertion sequence."""
    trie = RadixTrie()
    table = {}
    for payload, spec in enumerate(specs):
        trie.insert(spec, payload)
        table[spec] = payload  # duplicates: last payload wins on both sides
    return trie, table


EDGE_POPULATION = [
    PrefixSpec(0, 0),
    PrefixSpec(0x0A000001, 32),
    PrefixSpec(0xFFFFFF00, 24),
    PrefixSpec(0xFFFFFF80, 25),
    PrefixSpec(0xFFFFFFFF, 32),
]


@given(st.lists(prefix_specs, max_size=40), prefix_specs)
@example(specs=EDGE_POPULATION, cover=PrefixSpec(0, 0))
@example(specs=EDGE_POPULATION, cover=PrefixSpec(0xFFFFFF00, 24))  # ends at 2**32
@example(specs=EDGE_POPULATION, cover=PrefixSpec(0xFFFFFFFF, 32))
@example(specs=EDGE_POPULATION, cover=PrefixSpec(0x0A000000, 8))
def test_covered_agrees_with_brute_force(specs, cover):
    trie, table = build(specs)
    expected = sorted(
        ((spec, payload) for spec, payload in table.items() if cover.covers(spec)),
        key=lambda entry: (entry[0].value, entry[0].length),
    )
    assert trie.covered(cover) == expected


@given(st.lists(prefix_specs, max_size=40))
def test_entries_enumerates_all_in_canonical_order(specs):
    trie, table = build(specs)
    assert len(trie) == len(table)
    expected = sorted(
        table.items(), key=lambda entry: (entry[0].value, entry[0].length)
    )
    assert trie.entries() == expected
    # Host-order-bit: entries() is covered() from the default-route cover.
    assert trie.covered(PrefixSpec(0, 0)) == expected


@given(st.lists(prefix_specs, max_size=30, unique=True))
def test_enumeration_is_insertion_order_independent(specs):
    forward = RadixTrie()
    backward = RadixTrie()
    for spec in specs:
        forward.insert(spec, str(spec))
    for spec in reversed(specs):
        backward.insert(spec, str(spec))
    assert forward.entries() == backward.entries()


@given(st.lists(prefix_specs, max_size=30), st.data())
def test_exact_match_tracks_dict_semantics(specs, data):
    trie, table = build(specs)
    removed = (
        data.draw(
            st.lists(
                st.sampled_from(sorted(table, key=str)), unique=True, max_size=10
            )
        )
        if table
        else []
    )
    for spec in removed:
        assert trie.remove(spec)
        assert not trie.remove(spec)
        del table[spec]
    probes = list(table) + removed + data.draw(
        st.lists(prefix_specs, max_size=5)
    )
    for spec in probes:
        assert (spec in trie) == (spec in table)
        assert trie.get(spec) == table.get(spec)


@given(
    st.integers(min_value=0, max_value=ADDRESS_SPACE - 1),
    st.integers(min_value=1, max_value=28),
    st.integers(min_value=1, max_value=4),
)
@example(raw=0xFFFFFF00, length=24, bits=4)  # the cover ends at 2**32
@example(raw=0, length=28, bits=4)  # the specifics are /32 hosts
def test_covered_walks_an_aggregation_block(raw, length, bits):
    """A cover plus its 2^k specifics: the walk sees cover-first order,
    siblings of the cover stay invisible, and removing every specific (the
    last entries of their length) then re-inserting them restores both
    the walk and longest-prefix match without duplicating entries."""
    cover = PrefixSpec(raw & PrefixSpec(0, length).network_mask, length)
    specifics = cover.split(bits)
    trie = RadixTrie()
    trie.insert(cover, "cover")
    for spec in specifics:
        trie.insert(spec, "specific")

    walked = trie.covered(cover)
    assert walked[0] == (cover, "cover")
    assert [spec for spec, _ in walked[1:]] == specifics
    # Each specific's own subtree walk sees only itself.
    for spec in specifics:
        assert trie.covered(spec) == [(spec, "specific")]

    last = cover.value + cover.size - 1
    assert trie.lookup(last) == (specifics[-1], "specific")

    # Aggregation withdraws the specifics, emptying their length: the cover
    # keeps matching and no phantom entry is left behind.
    for spec in specifics:
        assert trie.remove(spec)
    assert trie.covered(cover) == [(cover, "cover")]
    assert trie.lookup(cover.value) == trie.lookup(last) == (cover, "cover")
    for spec in specifics:  # deaggregate again: the length is probed anew
        trie.insert(spec, "specific")
    assert trie.covered(cover) == walked
    assert len(trie) == 1 + len(specifics)
    assert trie.lookup(cover.value) == (specifics[0], "specific")
    assert trie.lookup(last) == (specifics[-1], "specific")
