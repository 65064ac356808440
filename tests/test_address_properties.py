"""Property tests on configurable address mappings."""

from hypothesis import given, settings, strategies as st

from repro.system.address import AddressMapping


@given(
    rank=st.integers(0, 1),
    bank=st.integers(0, 15),
    row=st.integers(0, 2**17 - 1),
    column=st.integers(0, 127),
)
@settings(max_examples=80)
def test_default_system_mapping_bijective(rank, bank, row, column):
    mapping = AddressMapping()
    physical = mapping.physical_address(rank, bank, row % 4096, column)
    assert mapping.dram_address(physical) == (rank, bank, row % 4096, column)


@given(st.integers(min_value=0, max_value=(1 << 30) - 64))
@settings(max_examples=60)
def test_system_mapping_total_on_offsets(physical):
    """Every in-hugepage physical offset maps to valid coordinates."""
    mapping = AddressMapping()
    rank, bank, row, column = mapping.dram_address(physical)
    assert 0 <= rank < 2
    assert 0 <= bank < 16
    assert 0 <= row < 1 << mapping.row_bits
    assert 0 <= column < 128
