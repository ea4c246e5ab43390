"""State-vector engine: selective pulses, measurement, thermal sampling.

A state is exact over the 2^(2n+1)-dimensional register space, but it stores
only its *live* sites: a tensor over those, with every other (dormant) site
exactly |0>. In the paper's scheme the electrons and the tip carbon are
ancillas that every compiled gate hands back in |0>, so a run stores at most
the n nuclei plus the three ancillas a CNOT has in flight: 2^(n+3)
amplitudes, not 2^(2n+1). A pulse that moves amplitude onto a dormant site
wakes it (its axis is inserted with a zero |1> half); a pulse or collapse
that leaves a site's |1> half exactly zero drops it again. Electron and tip
pulses are exact pi swaps, so that is a zero test, not a tolerance. A state
built from a full vector has every site live and runs as a plain dense
engine; ``PureState.amplitudes`` materialises the dense vector for callers
that want one.

A pulse drives exactly the basis-index pairs whose single-spin flip lies
within the machine's selectivity window of the drive frequency — everything
else is untouched, which is the whole trick behind tip-conditional logic.
A flip line depends only on the bits of the addressed spin's one or two
partners, so a pulse compares its drive with at most four lines
(``physics.pattern_lines``) and moves whole slabs of amplitudes: basic-slice
views of the live tensor, with the addressed and partner sites pinned, one
slab per partner pattern and addressed bit. No register-sized frequency or
index array is built. The slabs come from a memoised plan (``_slab_plan``):
the reshape and slice keys depend only on the axes of the addressed site and
its partners among the live sites, so a pulse reshapes once and indexes.
Populations and measurement read and zero the halves of a site through the
same plan.

``apply_selective_pulse`` and ``measure_spin`` drive or collapse the state
they are given and return that same object, whose tensor is replaced when a
site wakes or drops. ``compiler.execute`` copies its input once, so a whole
program runs on one state object; pass ``state.copy()`` to keep a state.
"""

import bisect
import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from . import physics
from .errors import DegenerateState, MismatchedRegister, TipParked
from .register import PARKED

#: Resonant-subspace weight below which a pulse counts as having done nothing.
IDLE_POPULATION = 1e-12


class Channel(enum.Enum):
    """Which species an RF drive talks to (frequency does the rest)."""

    ELECTRON_RF = "electron_rf"
    PHOSPHORUS_NUCLEAR_RF = "phosphorus_nuclear_rf"
    TIP_CARBON_NUCLEAR_RF = "tip_carbon_nuclear_rf"


class PulseMode(enum.Enum):
    """How the resonant pair is rotated.

    LOGICAL_X treats the pulse as a clean logical bit operation: the pair gets
    X^(angle/pi), phase ignored, and an exact pi is a literal amplitude swap.
    PHASED_ROTATION is the physical Rabi rotation exp(-i angle/2 (cos(phase) X
    + sin(phase) Y)), global phases and all.
    """

    LOGICAL_X = "logical_x"
    PHASED_ROTATION = "phased_rotation"


_TWO_PI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class Pulse:
    """One RF drive: who, at what frequency, how far around the Bloch sphere."""

    channel: Channel
    frequency: float
    angle: float
    phase: float = 0.0
    duration: float = 0.0
    mode: PulseMode = PulseMode.LOGICAL_X

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"pulse frequency must be positive, got {self.frequency!r}")
        if not 0 < self.angle <= _TWO_PI:
            raise ValueError(f"pulse angle must lie in (0, 2*pi], got {self.angle!r}")
        if not math.isfinite(self.phase):
            raise ValueError(f"pulse phase must be finite, got {self.phase!r}")
        if not self.duration > 0:
            raise ValueError(f"pulse duration must be positive, got {self.duration!r}")


@dataclasses.dataclass(frozen=True)
class PulseOutcome:
    """What a pulse actually did.

    ``resonant_pair_count`` is spectral: how many basis-index pairs the drive
    frequency hit, independent of the state. ``resonant_population`` is the
    weight the state had on those pairs. ``no_resonant_transition`` flags the
    pulse as a no-op on this state — either a spectral miss or resonance with
    only empty branches.
    """

    resonant_pair_count: int
    resonant_population: float
    no_resonant_transition: bool


class PureState:
    """A normalized pure state of the register, stored over its live sites.

    ``sites`` is the sorted tuple of live sites and ``tensor`` the flat
    complex amplitudes over them, the first live site most significant.
    Every other site is exactly |0>. ``PureState(amplitudes, num_sites)``
    takes a full register vector, so every site starts live; ``ground``,
    ``from_bits`` and ``product`` keep only the sites that need an axis.
    """

    def __init__(self, amplitudes, num_sites):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_sites,):
            raise MismatchedRegister(f"{amps.shape} amplitudes for a {num_sites}-site register")
        self.num_sites = num_sites
        self.sites = tuple(range(num_sites))
        self.tensor = amps

    @classmethod
    def _over(cls, num_sites, sites, tensor):
        """A state whose live ``sites`` (sorted) hold ``tensor``, taken as is."""
        state = cls.__new__(cls)
        state.num_sites, state.sites, state.tensor = num_sites, tuple(sites), tensor
        return state

    @classmethod
    def ground(cls, layout):
        """Every spin in its species ground orientation."""
        return cls._over(layout.num_sites, (), np.ones(1, dtype=np.complex128))

    @classmethod
    def from_bits(cls, bits):
        """Basis state |bits> in site order."""
        sites = [site for site, bit in enumerate(bits) if bit & 1]
        tensor = np.zeros(1 << len(sites), dtype=np.complex128)
        tensor[-1] = 1.0
        return cls._over(len(bits), sites, tensor)

    @classmethod
    def product(cls, layout, nuclear_amplitudes):
        """Product state with chosen qubit-nucleus amplitudes, ancillas ground.

        ``nuclear_amplitudes`` maps qubit index to an (a0, a1) pair; omitted
        qubits, all electrons and the tip start in bit 0 and stay dormant.
        """
        sites, tensor = [], np.ones(1, dtype=np.complex128)
        for qubit in range(layout.num_qubits):
            if qubit in nuclear_amplitudes:
                factor = np.array(nuclear_amplitudes[qubit], dtype=np.complex128)
                sites.append(layout.nucleus_site(qubit))
                tensor = np.kron(tensor, factor / np.linalg.norm(factor))
        return cls._over(layout.num_sites, sites, tensor)

    @property
    def amplitudes(self):
        """The dense 2^num_sites vector, read-only; dormant sites read |0>."""
        if len(self.sites) == self.num_sites:
            dense = self.tensor.view()
        else:
            dense = np.zeros(1 << self.num_sites, dtype=np.complex128)
            live = set(self.sites)
            index = tuple(slice(None) if s in live else 0 for s in range(self.num_sites))
            dense.reshape((2,) * self.num_sites)[index] = self.tensor.reshape(
                (2,) * len(self.sites)
            )
        dense.flags.writeable = False
        return dense

    def copy(self):
        return PureState._over(self.num_sites, self.sites, self.tensor.copy())

    def norm(self):
        return float(np.linalg.norm(self.tensor))

    def population(self, site, bit):
        """Total weight with ``site`` in ``bit``."""
        slab = self._slab(site, bit)
        return 0.0 if slab is None else _sum_squares(slab)

    def dump_text(self):
        """One ``bitstring re im`` line per amplitude of modulus above 1e-12."""
        lines = []
        bits = ["0"] * self.num_sites
        for index, amp in enumerate(self.tensor):
            if abs(amp) > 1e-12:
                for site, bit in zip(self.sites, format(index, f"0{len(self.sites)}b")):
                    bits[site] = bit
                lines.append(f"{''.join(bits)} {float(amp.real)!r} {float(amp.imag)!r}")
        return "\n".join(lines) + "\n"

    def _axis(self, site):
        """Position of ``site`` among the live sites, or None if it is dormant."""
        axis = bisect.bisect_left(self.sites, site)
        return axis if axis < len(self.sites) and self.sites[axis] == site else None

    def _slab(self, site, bit):
        """View of the tensor with ``site`` pinned to ``bit``.

        A dormant site pinned to 0 selects everything and one pinned to 1
        selects nothing, so the slab is then None.
        """
        axis = self._axis(site)
        if axis is None:
            return None if bit else self.tensor
        return _half(self.tensor, axis, bit)

    def _wake(self, site):
        """Give a dormant site its axis, with an all-zero |1> half."""
        axis = bisect.bisect_left(self.sites, site)
        woken = np.zeros(2 * self.tensor.size, dtype=np.complex128)
        half = _half(woken, axis, 0)
        half[...] = self.tensor.reshape(half.shape)
        self.sites = self.sites[:axis] + (site,) + self.sites[axis:]
        self.tensor = woken

    def _drop(self, site):
        """Make a live site whose |1> half is zero dormant: keep its |0> half."""
        axis = self._axis(site)
        self.tensor = _half(self.tensor, axis, 0).reshape(-1)
        self.sites = self.sites[:axis] + self.sites[axis + 1 :]


#: Partner bit patterns in ``physics.pattern_lines`` order, per partner count.
_PATTERNS = tuple(tuple(itertools.product((0, 1), repeat=r)) for r in range(3))


@functools.lru_cache(maxsize=1024)
def _slab_plan(axis, partner_axes):
    """(shape, slabs, one): how to cut a flat 2^k tensor into a pulse's slabs.

    ``axis`` is the addressed site's axis and ``partner_axes`` its partners',
    None for a dormant one; axis 0 is the most significant bit. ``shape``
    splits the tensor at the live ones, with the free axes between two of
    them in one dimension, so p pinned axes give at most 2p + 1 dimensions.
    Its last is -1, which is why k does not enter the key.
    ``slabs`` holds, per partner pattern, None when the pattern pins a
    dormant partner to 1 (it selects nothing), else the indices of its
    addressed-bit 0 and 1 slabs, or of its one slab while the addressed site
    is dormant. ``one`` indexes the addressed site's |1> half, or is None
    while it is dormant. Length-1 slices rather than integers keep every slab
    a view, even with every axis pinned.
    """
    pinned = sorted(a for a in partner_axes + (axis,) if a is not None)
    shape, start = [], 0
    for pin in pinned:
        shape += [1 << (pin - start), 2]
        start = pin + 1

    def key(bits):
        index = [slice(None)] * (2 * len(pinned))
        for pin, bit in bits.items():
            index[2 * pinned.index(pin) + 1] = slice(bit, bit + 1)
        return tuple(index)

    slabs = []
    for pattern in _PATTERNS[len(partner_axes)]:
        bits = {a: bit for a, bit in zip(partner_axes, pattern) if a is not None}
        if any(a is None and bit for a, bit in zip(partner_axes, pattern)):
            slabs.append(None)
        elif axis is None:
            slabs.append((key(bits),))
        else:
            slabs.append((key({**bits, axis: 0}), key({**bits, axis: 1})))
    one = None if axis is None else key({axis: 1})
    return tuple(shape) + (-1,), tuple(slabs), one


def _half(tensor, axis, bit):
    """View of a flat 2^k tensor with ``axis`` pinned to ``bit``."""
    shape, slabs, _ = _slab_plan(axis, ())
    return tensor.reshape(shape)[slabs[0][bit]]


def _sum_squares(view):
    """Sum of |amplitude|^2 over ``view``: the C reduction ``np.sum`` reaches."""
    return float(np.add.reduce(np.abs(view) ** 2, axis=None))


def _any(view):
    """Whether ``view`` holds a nonzero amplitude: the C reduction ``np.any`` reaches."""
    return bool(np.logical_or.reduce(view, axis=None, dtype=bool))


def _pair_unitary(pulse):
    """2x2 matrix applied to each resonant (index0, index1) amplitude pair."""
    if pulse.mode is PulseMode.LOGICAL_X:
        # Principal fractional power of X: diagonalize in |+->, so
        # X^t = [[(1+w)/2, (1-w)/2], [(1-w)/2, (1+w)/2]] with w = e^{i pi t}.
        w = np.exp(1j * math.pi * (pulse.angle / math.pi))
        u00 = u11 = (1.0 + w) / 2.0
        u01 = u10 = (1.0 - w) / 2.0
    else:
        c = math.cos(pulse.angle / 2.0)
        s = math.sin(pulse.angle / 2.0)
        u00 = u11 = complex(c, 0.0)
        u01 = -1j * s * np.exp(-1j * pulse.phase)
        u10 = -1j * s * np.exp(1j * pulse.phase)
    return u00, u01, u10, u11


def _addressed_site(channel, layout):
    """Site a channel drives given the tip position; qubit channels need the tip."""
    if channel is Channel.TIP_CARBON_NUCLEAR_RF:
        return layout.tip_site
    if layout.tip_position is PARKED:
        raise TipParked(f"channel {channel.value} needs the tip over a qubit")
    if channel is Channel.ELECTRON_RF:
        return layout.electron_site(layout.tip_position)
    return layout.nucleus_site(layout.tip_position)


def _plan(state, site, partners):
    """The tensor reshaped for a pulse on ``site``, its slab keys and |1> half key."""
    shape, slabs, one = _slab_plan(state._axis(site), tuple(map(state._axis, partners)))
    return state.tensor.reshape(shape), slabs, one


def apply_selective_pulse(state, pulse, layout, cfg):
    """Drive every basis pair resonant with the pulse; return (state, outcome).

    A pair (i, i^flip) of the addressed site is resonant when its flip
    frequency lies within ``cfg.selectivity_tolerance`` of the drive. That
    frequency is a function of the partner bits alone, so the test compares
    the drive with the at most four ``physics.pattern_lines`` of the site.
    Every resonant pattern names two slabs of the live tensor, addressed bit
    0 and 1 with the partners pinned; they are swapped (exact pi) or rotated
    by the pair unitary in place. A dormant partner is |0>, so its bit-1
    patterns hold nothing and are skipped; ``resonant_pair_count`` still
    counts them, as the dense register would. A dormant addressed site is
    woken only when a resonant pattern carries amplitude, and the addressed
    site drops out again when its |1> half ends exactly zero.

    The given state is driven (its tensor may be replaced) and returned.
    """
    if state.num_sites != layout.num_sites:
        raise MismatchedRegister(
            f"state of {state.num_sites} sites under a {layout.num_sites}-site layout"
        )
    site = _addressed_site(pulse.channel, layout)
    n = layout.num_sites
    partners, lines = physics.pattern_lines(layout, cfg, site)
    hits = [index for index, line in enumerate(lines)
            if abs(line - pulse.frequency) <= cfg.selectivity_tolerance]

    view, slabs, one = _plan(state, site, partners)
    occupied = [index for index in hits if slabs[index] is not None]
    if one is None and any(_any(view[slabs[index][0]]) for index in occupied):
        state._wake(site)
        view, slabs, one = _plan(state, site, partners)
    population = 0.0
    if one is not None:
        swap = pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi
        if not swap:
            u00, u01, u10, u11 = _pair_unitary(pulse)
        for index in occupied:
            key0, key1 = slabs[index]
            a0, a1 = view[key0], view[key1]
            population += _sum_squares(a0) + _sum_squares(a1)
            if swap:  # exact swap, no rounding
                held = a0.copy()
                a0[...] = a1
                a1[...] = held
            else:
                rotated0 = u00 * a0 + u01 * a1
                a1[...] = u10 * a0 + u11 * a1
                a0[...] = rotated0
        if not _any(view[one]):
            state._drop(site)
    outcome = PulseOutcome(
        resonant_pair_count=len(hits) << (n - 1 - len(partners)),
        resonant_population=population,
        no_resonant_transition=population <= IDLE_POPULATION,
    )
    return state, outcome


def measure_spin(state, site, rng):
    """Projectively measure one site; return (bit, collapsed state, probability).

    ``rng`` is a seeded ``numpy.random.Generator`` (or a seed for one); exactly
    one draw is consumed, so measurement streams are reproducible. A dormant
    site reads 0 with probability 1. The losing half is zeroed and the tensor
    renormalised; a site that keeps bit 0 then drops out, keeping half the
    tensor. The given state is collapsed (its tensor may be replaced) and
    returned.
    """
    rng = np.random.default_rng(rng)
    total = _sum_squares(state.tensor)
    if not math.sqrt(total) >= 1e-9:
        raise DegenerateState(f"state norm {math.sqrt(total):.3e} is too small to measure")
    p_one = state.population(site, 1) / total
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    lost = state._slab(site, 1 - bit)
    if lost is not None:
        lost[...] = 0.0
    norm = np.linalg.norm(state.tensor)
    if bit == 0 and state._axis(site) is not None:
        state._drop(site)
    state.tensor /= norm
    return bit, state, float(probability)


def thermal_ground_probability(species, cfg):
    """Boltzmann weight of the ground orientation at the bare Zeeman splitting."""
    splitting = physics.zeeman_splitting(species, cfg)
    x = cfg.planck_constant * splitting / (cfg.boltzmann_constant * cfg.temperature)
    return 1.0 / (1.0 + math.exp(-x))


def thermal_sample(layout, cfg, rng):
    """Draw one basis configuration from the independent-spin thermal state.

    Hyperfine shifts are negligible against the Zeeman splittings for this,
    so each site is sampled on its bare two-level Boltzmann factor, one RNG
    draw per site in site order.
    """
    rng = np.random.default_rng(rng)
    bits = []
    for site in range(layout.num_sites):
        p_ground = thermal_ground_probability(layout.species_of(site), cfg)
        bits.append(0 if rng.random() < p_ground else 1)
    return tuple(bits)


@dataclasses.dataclass(frozen=True)
class AncillaDiagnostics:
    """Ground-state populations and joint purity of the non-data spins."""

    populations: dict
    purity: float


def ancilla_diagnostics(state, layout, sites=None):
    """Check the working spins (electrons + tip) returned to their ground states.

    ``purity`` is Tr(rho^2) of the reduced state on ``sites`` (default: every
    electron and the tip); 1 means the ancillas are clean and disentangled
    from the data, anything less means a protocol leaked entanglement.

    Dormant sites are |0> factors and leave the purity alone, so it is taken
    over the live ones: rho = M M^dagger, where row r of M holds the live
    tensor's amplitudes with those sites in configuration r. Only rows with a
    nonzero amplitude contribute, so M is gathered from those rows alone;
    after a compiled gate every ancilla is dormant and M is one row.
    """
    if sites is None:
        sites = tuple(layout.electron_site(q) for q in range(layout.num_qubits))
        sites = sites + (layout.tip_site,)
    populations = {layout.site_name(s): state.population(s, 0) for s in sites}
    k = len(state.sites)
    axes = tuple(axis for axis in map(state._axis, sites) if axis is not None)
    others = tuple(axis for axis in range(k) if axis not in axes)
    # A leading length-1 axis keeps the row index valid with no live ancilla.
    tensor = np.transpose(state.tensor.reshape((2,) * k), axes + others)[np.newaxis]
    support = np.flatnonzero(np.any((tensor != 0).reshape(1 << len(axes), -1), axis=1))
    rows = tensor[np.unravel_index(support, (1,) + (2,) * len(axes))]
    matrix = rows.reshape(len(support), 1 << len(others))
    if matrix.shape[0] > matrix.shape[1]:
        # Both sides of a pure state share their nonzero spectrum, so the
        # smaller Gram matrix (conjugated, which keeps its norm) has the purity.
        matrix = matrix.T
    gram = matrix @ matrix.conj().T
    purity = float(np.vdot(gram, gram).real)
    return AncillaDiagnostics(populations=populations, purity=purity)
