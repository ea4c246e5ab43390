"""Register geometry: site ordering, tip position, basis-index bookkeeping.

A register of ``n`` qubits holds ``2n + 1`` spin sites. Site ``2i`` is the
nucleus of qubit ``i``, site ``2i + 1`` its bound electron, and the last site
is the tip's carbon nucleus, which travels with the tip. Basis states are
tuples of bits in site order; integer indices treat site 0 as the most
significant bit, so sorting indices sorts the printed bitstrings too.
"""

import dataclasses

from .config import Species
from .errors import MismatchedRegister

#: Tip position value meaning "retracted, over no qubit".
PARKED = None


def index_of_bits(bits):
    """Pack a bit tuple (site order) into a basis index."""
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


@dataclasses.dataclass(frozen=True)
class RegisterLayout:
    """Where the spins sit and where the tip currently is.

    ``coordinates`` places each qubit on an integer grid (row, column) in
    units of the lattice spacing; the default is a single row. ``tip_position``
    is a qubit index, or PARKED.
    """

    num_qubits: int
    coordinates: tuple = ()
    tip_position: "int | None" = PARKED

    def __post_init__(self):
        if self.num_qubits < 1:
            raise MismatchedRegister(f"need at least one qubit, got {self.num_qubits}")
        if not self.coordinates:
            object.__setattr__(
                self, "coordinates", tuple((0, i) for i in range(self.num_qubits))
            )
        coords = tuple(tuple(c) for c in self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if len(coords) != self.num_qubits:
            raise MismatchedRegister(
                f"{self.num_qubits} qubits but {len(coords)} coordinates"
            )
        if len(set(coords)) != len(coords):
            raise MismatchedRegister("two qubits share a grid coordinate")
        self._check_tip(self.tip_position)

    def _check_tip(self, position):
        if position is not PARKED and not 0 <= position < self.num_qubits:
            raise MismatchedRegister(f"tip position {position!r} is not a qubit index")

    @property
    def num_sites(self):
        return 2 * self.num_qubits + 1

    @property
    def dimension(self):
        return 1 << self.num_sites

    @property
    def tip_site(self):
        return 2 * self.num_qubits

    def nucleus_site(self, qubit):
        self.check_qubit(qubit)
        return 2 * qubit

    def electron_site(self, qubit):
        self.check_qubit(qubit)
        return 2 * qubit + 1

    def check_qubit(self, qubit):
        if not 0 <= qubit < self.num_qubits:
            raise MismatchedRegister(f"qubit {qubit!r} outside register of {self.num_qubits}")

    def species_of(self, site):
        if site == self.tip_site:
            return Species.TIP_CARBON_NUCLEUS
        if not 0 <= site < self.num_sites:
            raise MismatchedRegister(f"site {site!r} outside register")
        return Species.PHOSPHORUS_NUCLEUS if site % 2 == 0 else Species.ELECTRON

    def qubit_of(self, site):
        """Qubit owning a site, or None for the tip site."""
        if site == self.tip_site:
            return None
        self.species_of(site)  # bounds check
        return site // 2

    def site_name(self, site):
        if site == self.tip_site:
            return "tip"
        prefix = "n" if site % 2 == 0 else "e"
        return f"{prefix}{site // 2}"

    def with_tip(self, position):
        """Copy of this layout with the tip somewhere else.

        Only the tip is checked: the qubit count and coordinates were
        normalised and validated when this layout was made, so the copy
        skips ``__post_init__``.
        """
        self._check_tip(position)
        moved = object.__new__(type(self))
        moved.__dict__.update(self.__dict__, tip_position=position)
        return moved

    def hop_distance(self, a, b):
        """Tip travel between two positions, in lattice hops.

        Qubit-to-qubit travel is the Manhattan distance on the grid; parking
        or unparking costs one hop (retract/approach), and staying put is free.
        """
        self._check_tip(a)
        self._check_tip(b)
        if a == b:
            return 0
        if a is PARKED or b is PARKED:
            return 1
        (ra, ca), (rb, cb) = self.coordinates[a], self.coordinates[b]
        return abs(ra - rb) + abs(ca - cb)
