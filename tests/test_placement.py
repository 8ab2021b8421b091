"""Tests for repro.layout.placement."""

import pytest

from repro.errors import PlacementError
from repro.netlist import Circuit, PinSide, TerminalDirection
from repro.layout.placement import Placement


@pytest.fixture()
def circuit(library):
    c = Circuit("p", library)
    c.add_cell("a", "NOR2")   # width 5
    c.add_cell("b", "INV1")   # width 4
    c.add_cell("d", "DFF")    # width 10
    c.add_cell("f", "FEED")   # width 1
    return c


class TestGeometry:
    def test_packing(self, circuit):
        a, b, d, f = (circuit.cell(n) for n in "abdf")
        placement = Placement(circuit, [[a, f, b], [d]])
        assert placement.location_of(a) == (0, 0)
        assert placement.location_of(f) == (0, 5)
        assert placement.location_of(b) == (0, 6)
        assert placement.location_of(d) == (1, 0)
        assert placement.width_columns == 10
        assert placement.row_width(0) == 10
        assert placement.n_rows == 2
        assert placement.n_channels == 3

    def test_empty_rows_rejected(self, circuit):
        with pytest.raises(PlacementError):
            Placement(circuit, [])

    def test_duplicate_cell_rejected(self, circuit):
        a = circuit.cell("a")
        with pytest.raises(PlacementError):
            Placement(circuit, [[a, a]])

    def test_terminal_coordinates(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[b, a]])
        # b at x=0, a at x=4; NOR2 I0 offset 1, O offset 4.
        assert placement.terminal_column(a.terminal("I0")) == 5
        assert placement.terminal_column(a.terminal("O")) == 8
        assert placement.terminal_row(a.terminal("O")) == 0

    def test_unplaced_cell_raises(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.location_of(b)

    def test_validate_requires_all_logic_cells(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.validate()


class TestPins:
    def test_pin_channels(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a], [circuit.cell("b")]])
        bottom = circuit.add_external_pin(
            "pb", TerminalDirection.INPUT, side=PinSide.BOTTOM, column=1
        )
        top = circuit.add_external_pin(
            "pt", TerminalDirection.OUTPUT, side=PinSide.TOP, column=2
        )
        assert placement.pin_channel(bottom) == 0
        assert placement.pin_channel(top) == 2
        assert placement.pin_adjacent_channels(bottom) == (0,)
        assert placement.pin_position(top) == (2, 2)
        assert placement.pin_position(bottom) == (1, -1)

    def test_unassigned_pin_column_raises(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        pin = circuit.add_external_pin("p", TerminalDirection.INPUT)
        with pytest.raises(PlacementError):
            placement.pin_column(pin)

    def test_terminal_adjacent_channels(self, circuit):
        a = circuit.cell("a")
        b = circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        assert placement.pin_adjacent_channels(a.terminal("O")) == (0, 1)
        assert placement.pin_adjacent_channels(b.terminal("O")) == (1, 2)


class TestNetQueries:
    def _net(self, circuit, placement_rows):
        placement = Placement(circuit, placement_rows)
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        return placement, net

    def test_center_column_is_median(self, circuit):
        placement, net = self._net(
            circuit, [[circuit.cell("a"), circuit.cell("b")]]
        )
        columns = sorted(
            placement.terminal_column(p) for p in net.pins
        )
        assert placement.net_center_column(net) in columns

    def test_same_row_net_crosses_nothing(self, circuit):
        placement, net = self._net(
            circuit, [[circuit.cell("a"), circuit.cell("b")],
                      [circuit.cell("d")]]
        )
        assert placement.net_crossing_rows(net) == []
        assert placement.net_feedthrough_rows(net) == []

    def test_adjacent_row_net_crosses_nothing(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        assert placement.net_crossing_rows(net) == []

    def test_two_row_gap_needs_feedthrough(self, circuit):
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        placement = Placement(circuit, [[a], [d], [b]])
        net = circuit.add_net("n")
        circuit.connect("n", a.terminal("O"), b.terminal("I0"))
        assert placement.net_crossing_rows(net) == [1]
        assert placement.net_feedthrough_rows(net) == [1]

    def test_terminal_on_crossing_row_needs_no_feedthrough(self, circuit):
        a, b, d = circuit.cell("a"), circuit.cell("b"), circuit.cell("d")
        placement = Placement(circuit, [[a], [d], [b]])
        net = circuit.add_net("n")
        circuit.connect(
            "n", a.terminal("O"), d.terminal("D"), b.terminal("I0")
        )
        assert placement.net_crossing_rows(net) == [1]
        assert placement.net_feedthrough_rows(net) == []

    def test_bottom_pin_to_row1_crosses_row0(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a], [b]])
        pin = circuit.add_external_pin(
            "p", TerminalDirection.INPUT, side=PinSide.BOTTOM, column=0
        )
        net = circuit.add_net("n")
        circuit.connect("n", pin, b.terminal("I0"))
        assert placement.net_crossing_rows(net) == [0]
        assert placement.net_feedthrough_rows(net) == [0]


class TestMutation:
    def test_insert_cells_refreshes_coordinates(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        f = circuit.cell("f")
        placement = Placement(circuit, [[a, b]])
        placement.insert_cells(0, 1, [f])
        assert placement.location_of(f) == (0, 5)
        assert placement.location_of(b) == (0, 6)

    def test_insert_bad_index_raises(self, circuit):
        a = circuit.cell("a")
        placement = Placement(circuit, [[a]])
        with pytest.raises(PlacementError):
            placement.insert_cells(0, 5, [circuit.cell("f")])

    def test_feed_cells_in_row(self, circuit):
        a, f = circuit.cell("a"), circuit.cell("f")
        placement = Placement(circuit, [[a, f]])
        feeds = placement.feed_cells_in_row(0)
        assert len(feeds) == 1
        assert feeds[0].x == 5
        assert placement.feed_cells_in_row(0)[0].cell is f


class TestInsertCellBlocks:
    def _feeds(self, circuit, n, prefix="nf"):
        return [
            circuit.add_cell(f"{prefix}{i}", "FEED") for i in range(n)
        ]

    def test_matches_sequential_insert_cells(self, circuit):
        a, b, d, f = (circuit.cell(n) for n in "abdf")
        feeds = self._feeds(circuit, 4)
        seq = Placement(circuit, [[a, f, b]])
        # Descending-index order, as FeedCellInserter produces.
        blocks = [(3, feeds[2:4]), (1, feeds[0:2])]
        for index, cells in blocks:
            seq.insert_cells(0, index, cells)
        expected = {
            cell.name: seq.location_of(cell) for cell in seq.rows[0]
        }
        batched = Placement(circuit, [[a, f, b]])
        batched.insert_cell_blocks(0, blocks)
        assert [c.name for c in batched.rows[0]] == [
            c.name for c in seq.rows[0]
        ]
        for cell in batched.rows[0]:
            assert batched.location_of(cell) == expected[cell.name]

    def test_single_block_equals_insert_cells(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feeds = self._feeds(circuit, 2)
        placement = Placement(circuit, [[a, b]])
        placement.insert_cell_blocks(0, [(1, feeds)])
        assert [c.name for c in placement.rows[0]] == [
            "a", "nf0", "nf1", "b",
        ]
        assert placement.location_of(feeds[0]) == (0, 5)
        assert placement.location_of(feeds[1]) == (0, 6)
        assert placement.location_of(b) == (0, 7)

    def test_duplicate_rejected_before_mutation(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feed = self._feeds(circuit, 1)[0]
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(1, [feed]), (0, [feed])])
        # The row must be untouched after the failed batch.
        assert [c.name for c in placement.rows[0]] == ["a", "b"]
        assert placement.location_of(b) == (0, 5)

    def test_increasing_indices_rejected_before_mutation(self, circuit):
        """Blocks are merged in one pass, which matches sequential
        splices only for right-to-left indices."""
        a, b = circuit.cell("a"), circuit.cell("b")
        feeds = self._feeds(circuit, 2)
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(0, feeds[:1]), (1, feeds[1:])])
        assert [c.name for c in placement.rows[0]] == ["a", "b"]

    def test_equal_indices_match_sequential_insert_cells(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feeds = self._feeds(circuit, 3)
        blocks = [(1, feeds[:1]), (1, feeds[1:2]), (0, feeds[2:])]
        seq = Placement(circuit, [[a, b]])
        for index, cells in blocks:
            seq.insert_cells(0, index, cells)
        batched = Placement(circuit, [[a, b]])
        batched.insert_cell_blocks(0, blocks)
        assert [c.name for c in batched.rows[0]] == [
            c.name for c in seq.rows[0]
        ]

    def test_already_placed_cell_rejected(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(0, [a])])

    def test_bad_index_raises(self, circuit):
        a, b = circuit.cell("a"), circuit.cell("b")
        feed = self._feeds(circuit, 1)[0]
        placement = Placement(circuit, [[a, b]])
        with pytest.raises(PlacementError):
            placement.insert_cell_blocks(0, [(7, [feed])])


class TestWidthColumns:
    """The O(rows) width reads each row's last packed cell; it must equal
    the widest row's summed cell widths after every mutator."""

    @staticmethod
    def assert_width(placement):
        widths = [sum(cell.width for cell in row) for row in placement.rows]
        assert placement.width_columns == max(widths)
        for row, width in enumerate(widths):
            assert placement.row_width(row) == width

    def test_empty_row(self, circuit):
        placement = Placement(circuit, [[circuit.cell("a")], []])
        self.assert_width(placement)
        assert placement.width_columns == 5

    def test_after_each_mutator(self, circuit):
        a, b, d, f = (circuit.cell(n) for n in "abdf")
        placement = Placement(circuit, [[a, b], [d]])
        self.assert_width(placement)
        wide = circuit.add_cell("w", "DFF")
        placement.insert_cells(0, 2, [wide])       # new last cell
        self.assert_width(placement)
        feeds = [circuit.add_cell(f"nf{i}", "FEED") for i in range(3)]
        placement.insert_cell_blocks(1, [(1, feeds[1:]), (0, feeds[:1])])
        self.assert_width(placement)
        # rows: [a, b, w], [nf0, d, nf1, nf2]
        placement.swap_cells(wide, d)   # equal width, across rows
        self.assert_width(placement)
        # rows: [a, b, d], [nf0, w, nf1, nf2]
        placement.swap_cells(d, b)      # adjacent, new last cell
        self.assert_width(placement)
        assert placement.rows[0][-1] is b
        placement.insert_cells(0, 0, [f])
        self.assert_width(placement)

    def test_after_anneal(self, library):
        from repro.bench.circuits import CircuitSpec, generate_circuit
        from repro.layout.anneal import AnnealConfig, anneal_placement
        from repro.layout.placer import PlacerConfig, place_circuit

        circuit = generate_circuit(CircuitSpec(
            "w", n_gates=30, n_flops=4, n_inputs=4, n_outputs=3, seed=5,
        ))
        placement = place_circuit(circuit, PlacerConfig(n_rows=4))
        self.assert_width(placement)
        anneal_placement(circuit, placement, AnnealConfig(max_moves=400))
        self.assert_width(placement)
