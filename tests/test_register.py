"""Register layout, site roles, tip moves, and basis-index bookkeeping."""

import dataclasses

import numpy as np
import pytest

from spintip import PARKED, RegisterLayout, Species
from spintip.errors import MismatchedRegister
from spintip.register import is_index


def test_site_roles_and_names():
    layout = RegisterLayout(3)
    assert layout.num_sites == 7
    assert layout.dimension == 128
    assert [layout.nucleus_site(q) for q in range(3)] == [0, 2, 4]
    assert [layout.electron_site(q) for q in range(3)] == [1, 3, 5]
    assert layout.tip_site == 6
    assert layout.species_of(0) is Species.PHOSPHORUS_NUCLEUS
    assert layout.species_of(3) is Species.ELECTRON
    assert layout.species_of(6) is Species.TIP_CARBON_NUCLEUS
    assert layout.qubit_of(4) == 2
    assert layout.qubit_of(6) is None
    assert layout.site_name(0) == "n0"
    assert layout.site_name(5) == "e2"
    assert layout.site_name(6) == "tip"


def test_default_chain_hop_distances():
    layout = RegisterLayout(4)
    assert layout.coordinates == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert layout.hop_distance(0, 3) == 3
    assert layout.hop_distance(2, 2) == 0
    assert layout.hop_distance(PARKED, 1) == 1  # approach
    assert layout.hop_distance(1, PARKED) == 1  # retract
    assert layout.hop_distance(PARKED, PARKED) == 0


def test_grid_manhattan_distance():
    layout = RegisterLayout(4, coordinates=((0, 0), (1, 0), (1, 2), (3, 3)))
    assert layout.hop_distance(0, 2) == 3
    assert layout.hop_distance(1, 3) == 5


def test_tip_position_is_immutable_state():
    layout = RegisterLayout(2)
    assert layout.tip_position is PARKED
    moved = layout.with_tip(1)
    assert moved.tip_position == 1
    assert layout.tip_position is PARKED  # original untouched
    assert moved.with_tip(PARKED).tip_position is PARKED


# Row and grid layouts; list coordinates are normalised to tuples on creation.
MOVABLE = [
    RegisterLayout(1),
    RegisterLayout(4),
    RegisterLayout(3, coordinates=[[0, 0], [1, 0], [1, 2]]),
    RegisterLayout(4, coordinates=((0, 0), (1, 0), (1, 2), (3, 3)), tip_position=2),
]


@pytest.mark.parametrize("layout", MOVABLE)
def test_a_tip_move_equals_the_revalidated_copy(layout):
    for position in [PARKED, *range(layout.num_qubits)]:
        moved = layout.with_tip(position)
        expected = dataclasses.replace(layout, tip_position=position)
        assert type(moved) is RegisterLayout
        assert moved == expected
        assert hash(moved) == hash(expected)
        assert moved.coordinates == expected.coordinates
        assert moved.tip_position == position


@pytest.mark.parametrize("layout", MOVABLE)
@pytest.mark.parametrize("position", [-1, "n", 7, "a"])
def test_an_out_of_range_tip_move_raises_what_the_revalidated_copy_raises(layout, position):
    position = layout.num_qubits if position == "n" else position
    with pytest.raises(Exception) as revalidated:
        dataclasses.replace(layout, tip_position=position)
    with pytest.raises(type(revalidated.value)) as moved:
        layout.with_tip(position)
    assert str(moved.value) == str(revalidated.value)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: RegisterLayout(0),
        lambda: RegisterLayout(2, coordinates=((0, 0),)),
        lambda: RegisterLayout(2, coordinates=((0, 0), (0, 0))),
        lambda: RegisterLayout(2, tip_position=5),
        lambda: RegisterLayout(2).nucleus_site(2),
        lambda: RegisterLayout(2).with_tip(7),
        lambda: RegisterLayout(2).species_of(9),
    ],
)
def test_bad_layouts_rejected(bad):
    with pytest.raises(MismatchedRegister):
        bad()


@pytest.mark.parametrize(
    "bad",
    [
        lambda: RegisterLayout(3, tip_position=1.5),
        lambda: RegisterLayout(3).with_tip(1.0),
        lambda: RegisterLayout(3).hop_distance(0, 2.0),
        lambda: RegisterLayout(3).check_qubit(1.0),
        lambda: RegisterLayout(3).nucleus_site(np.float64(1)),
        lambda: RegisterLayout(3).electron_site("1"),
        lambda: RegisterLayout(3).species_of(6.0),
        lambda: RegisterLayout(3).species_of(2.5),
        lambda: RegisterLayout(3).qubit_of(6.0),
    ],
    ids=["tip-1.5", "with-tip-1.0", "hop-2.0", "qubit-1.0", "nucleus-float64", "electron-str",
         "species-tip-6.0", "species-2.5", "qubit-of-tip-6.0"],
)
def test_an_index_that_is_not_an_integer_is_refused(bad):
    # 1.0 == 1 and 6.0 == tip_site, but neither is an index.
    with pytest.raises(MismatchedRegister):
        bad()


def test_an_index_is_an_integer_in_range():
    assert [is_index(value, 2) for value in (0, 1, True, np.int64(1), np.uint8(0))] == [True] * 5
    assert [is_index(value, 2) for value in (-1, 2, 1.0, np.float64(0), "1", None, 0.5)] == [
        False
    ] * 7
