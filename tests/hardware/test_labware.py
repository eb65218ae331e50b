"""Tests for labware state containers."""

import numpy as np
import pytest

from repro.hardware.labware import (
    LabwareError,
    Plate,
    PlateStack,
    Reservoir,
    TipRack,
    Well,
    parse_well_name,
    well_name,
    well_names,
)


class TestWellNames:
    def test_first_and_last(self):
        assert well_name(0, 0) == "A1"
        assert well_name(7, 11) == "H12"

    def test_round_trip(self):
        for row in range(8):
            for col in range(12):
                assert parse_well_name(well_name(row, col)) == (row, col)

    def test_all_names_unique(self):
        names = well_names(8, 12)
        assert len(names) == 96
        assert len(set(names)) == 96

    def test_row_major_order(self):
        names = well_names(8, 12)
        assert names[:3] == ["A1", "A2", "A3"]
        assert names[12] == "B1"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            well_name(20, 0)
        with pytest.raises(ValueError):
            well_name(0, -1)
        with pytest.raises(ValueError):
            parse_well_name("11")
        with pytest.raises(ValueError):
            parse_well_name("Z")


class TestWell:
    def test_starts_empty(self):
        well = Well(name="A1")
        assert well.is_empty and well.volume == 0.0

    def test_add_accumulates(self):
        well = Well(name="A1")
        well.add("cyan", 10.0)
        well.add("cyan", 5.0)
        well.add("black", 2.0)
        assert well.volume == pytest.approx(17.0)
        assert well.contents["cyan"] == pytest.approx(15.0)

    def test_overfilling_rejected(self):
        well = Well(name="A1", capacity_ul=100.0)
        well.add("cyan", 90.0)
        with pytest.raises(LabwareError):
            well.add("magenta", 20.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            Well(name="A1").add("cyan", -1.0)

    def test_dye_volumes_vector(self):
        well = Well(name="A1")
        well.add("magenta", 7.0)
        volumes = well.dye_volumes(("cyan", "magenta", "yellow", "black"))
        np.testing.assert_allclose(volumes, [0.0, 7.0, 0.0, 0.0])

    def test_empty_clears_contents(self):
        well = Well(name="A1")
        well.add("cyan", 10.0)
        well.empty()
        assert well.is_empty


class TestPlate:
    def test_default_96_wells(self, plate):
        assert plate.n_wells == 96
        assert plate.remaining_capacity == 96
        assert not plate.is_full

    def test_next_empty_wells_row_major(self, plate):
        assert plate.next_empty_wells(3) == ["A1", "A2", "A3"]
        plate.well("A1").add("cyan", 1.0)
        assert plate.next_empty_wells(2) == ["A2", "A3"]

    def test_next_empty_wells_raises_when_exhausted(self, plate):
        for name in plate.empty_wells:
            plate.well(name).add("cyan", 1.0)
        assert plate.is_full
        with pytest.raises(LabwareError):
            plate.next_empty_wells(1)

    def test_used_and_empty_partition(self, plate):
        plate.well("C5").add("yellow", 2.0)
        assert "C5" in plate.used_wells
        assert "C5" not in plate.empty_wells
        assert len(plate.used_wells) + len(plate.empty_wells) == 96

    def test_unknown_well_name(self, plate):
        with pytest.raises(KeyError):
            plate.well("Z99")

    def test_grid_positions_cover_plate(self, plate):
        positions = list(plate.well_grid_positions())
        assert len(positions) == 96
        assert positions[0] == ("A1", 0, 0)
        assert positions[-1] == ("H12", 7, 11)

    def test_custom_dimensions(self):
        plate = Plate(barcode="mini", rows=2, cols=3)
        assert plate.n_wells == 6
        assert plate.empty_wells == ["A1", "A2", "A3", "B1", "B2", "B3"]


class TestReservoir:
    def test_draw_and_fill(self):
        reservoir = Reservoir(liquid="cyan", capacity_ul=1000.0, volume_ul=500.0)
        reservoir.draw(200.0)
        assert reservoir.volume_ul == pytest.approx(300.0)
        added = reservoir.fill()
        assert added == pytest.approx(700.0)
        assert reservoir.fill_fraction == pytest.approx(1.0)

    def test_draw_more_than_available_rejected(self):
        reservoir = Reservoir(liquid="cyan", capacity_ul=100.0, volume_ul=10.0)
        with pytest.raises(LabwareError):
            reservoir.draw(20.0)

    def test_overfill_rejected(self):
        reservoir = Reservoir(liquid="cyan", capacity_ul=100.0, volume_ul=90.0)
        with pytest.raises(LabwareError):
            reservoir.fill(20.0)

    def test_drain(self):
        reservoir = Reservoir(liquid="cyan", capacity_ul=100.0, volume_ul=60.0)
        assert reservoir.drain() == pytest.approx(60.0)
        assert reservoir.volume_ul == 0.0

    def test_initial_volume_cannot_exceed_capacity(self):
        with pytest.raises(LabwareError):
            Reservoir(liquid="cyan", capacity_ul=10.0, volume_ul=20.0)


class TestTipRack:
    def test_use_and_refill(self):
        rack = TipRack(capacity=96)
        rack.use(10)
        assert rack.remaining == 86
        rack.refill()
        assert rack.remaining == 96

    def test_exhaustion_rejected(self):
        rack = TipRack(capacity=5)
        rack.use(5)
        with pytest.raises(LabwareError):
            rack.use(1)

    def test_invalid_initial_state(self):
        with pytest.raises(LabwareError):
            TipRack(capacity=5, used=6)


class TestPlateStack:
    def test_pop_decrements_and_gives_unique_barcodes(self):
        stack = PlateStack(capacity=3)
        plates = [stack.pop(), stack.pop()]
        assert stack.remaining == 1
        assert plates[0].barcode != plates[1].barcode

    def test_barcodes_number_each_stack_from_one(self):
        """Regression: the barcode counter was shared by every stack in the
        process, so a tower's barcodes depended on unrelated earlier work."""
        first = PlateStack(capacity=2, prefix="tower")
        assert [first.pop().barcode, first.pop().barcode] == ["tower-0001", "tower-0002"]
        assert PlateStack(capacity=1, prefix="tower").pop().barcode == "tower-0001"

    def test_empty_stack_rejected(self):
        stack = PlateStack(capacity=1)
        stack.pop()
        assert stack.is_empty
        with pytest.raises(LabwareError):
            stack.pop()

    def test_restock_caps_at_capacity(self):
        stack = PlateStack(capacity=5)
        stack.pop()
        stack.restock(10)
        assert stack.remaining == 5
