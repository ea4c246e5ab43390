"""State-vector engine: selective pulses, measurement, thermal sampling.

A state is exact over the 2^(2n+1)-dimensional register space, but it stores
only its *live* sites: a tensor over those. Every other site is *slaved*: a
copy of one live site (its source), or, with no source, the constant 0
(*dormant*). In the paper's scheme the electrons and the tip carbon are
ancillas that only ever carry a copy of a nucleus bit and that every compiled
gate hands back in |0>, so a run stores the n nuclei and, during a CNOT, the
target electron alone: at most 2^(n+1) amplitudes, not 2^(2n+1).

An exact pi swap on a site that is not live, where exactly one resonant
pattern selects amplitude and it selects "source = 1" for one live site,
rewrites the slave map and moves no amplitude: a dormant site becomes a copy
of that source, and a copy of it becomes dormant. Every other pulse reads a
slaved partner as a condition on its source. A site is *materialised* --
given the axis a plain live-site engine would give it, holding its source's
bit -- when a pulse is not a swap, when its condition is not a single source
(the target electron's "target nucleus AND tip carbon"), when the pulse
addresses a source that has slaves, and before any measurement. A slab drive
wakes a dormant site first (its axis is inserted with a zero |1> half) and
drops it undriven when no resonant slab holds amplitude; a pulse or collapse
that leaves a site's |1> half exactly zero drops it too. Electron and tip
pulses are exact pi swaps, so that is a zero test, not a tolerance. A state
built from a full vector has every site live and runs as a plain dense
engine. ``PureState.amplitudes``, ``norm``, ``population``, ``dump_text``
and ``ancilla_diagnostics`` read a materialised copy when a site is slaved,
so their sums run over the layout a live-site engine holds, and they leave
the state as it is.

A pulse drives exactly the basis-index pairs whose single-spin flip lies
within the machine's selectivity window of the drive frequency — everything
else is untouched, which is the whole trick behind tip-conditional logic.
Each channel drives one site (``_addressed_site``): the electron or the
nucleus under the tip, or the tip carbon; no pulse reaches a site away from
the tip, whatever its lines. Under the default config
(``hyperfine_bare == hyperfine_tip_modified``) a nucleus has the same lines
with the tip on it or away from it, so the nuclear drives are selective only
because of this drive model; the tip's coupling sets the electron lines apart.
A flip line depends only on the bits of the addressed spin's one or two
partners, so a pulse compares its drive with at most four lines
(``physics.pattern_lines``) and moves whole slabs of amplitudes: basic-slice
views of the live tensor, with the addressed site and the partners' live
sites pinned, one slab per partner pattern and addressed bit. No
register-sized frequency or index array is built. The slabs come from a
memoised plan (``_slab_plan``): the reshape and slice keys depend only on
the live axes of the addressed site and of the sites its partners read, so a
pulse reshapes once and indexes. Populations and measurement read and zero
the halves of a site through the same plan. A pulse is resolved once per
channel, frequency, qubit count, tip position and config, in a bounded
``lru_cache`` (``_resolve``: its site, partners, resonant patterns and idle
outcome), so ROT pulses of any angle and phase share one entry. On a site
with no axis one memo (``_selection``) says whether any resonant pattern
selects amplitude and which live site a copy reads; a pulse on a dormant
site that selects nothing returns at once, touching no array. A pulse or
collapse finds each axis it reads once per call, and a state with no slaved
site skips the slave map. A collapse sums each half of the measured site once,
takes p(1) from the two sums and divides the kept half by the root of its
own sum (not at all when that is exactly 1.0). Every sum a collapse, a
population or ``PureState.norm`` takes is ``_sum_squares``' pairwise C
reduction, never a BLAS call, so those bits do not depend on the host's
BLAS threads; ``ancilla_diagnostics``' Gram product and ``vdot`` still go
through BLAS.

``apply_selective_pulse`` and ``measure_spin`` drive or collapse the state
they are given and return that same object, whose tensor is replaced when a
site wakes, drops or is materialised. ``compiler.execute`` copies its input
once, so a whole program runs on one state object; pass ``state.copy()`` to
keep a state.
"""

import bisect
import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from . import physics
from .config import BOLTZMANN_CONSTANT, PLANCK_CONSTANT
from .errors import DegenerateState, MismatchedRegister, TipParked
from .register import PARKED, RegisterLayout, check_bit, is_index

#: Resonant-subspace weight below which a pulse counts as having done nothing.
IDLE_POPULATION = 1e-12


class Channel(enum.Enum):
    """Which species an RF drive talks to (frequency does the rest)."""

    ELECTRON_RF = "electron_rf"
    PHOSPHORUS_NUCLEAR_RF = "phosphorus_nuclear_rf"
    TIP_CARBON_NUCLEAR_RF = "tip_carbon_nuclear_rf"

    # Members compare by identity and pickle and copy by name, so the C
    # identity hash is valid; ``Enum.__hash__`` is Python code, and every
    # ``_resolve`` lookup hashes a channel.
    __hash__ = object.__hash__


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
    ``slaves`` maps each slaved site to its live source, whose bit it holds
    in every amplitude; every other site is dormant, exactly |0>.
    ``PureState(amplitudes, num_sites)`` takes a full register vector, so
    every site starts live; ``ground``, ``from_bits`` and ``product`` keep
    only the sites that need an axis, and slave none. The vector is taken
    as it is, unnormalised too; a non-finite amplitude or an all-zero
    vector is DegenerateState.
    """

    def __init__(self, amplitudes, num_sites):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_sites,):
            raise MismatchedRegister(f"{amps.shape} amplitudes for a {num_sites}-site register")
        if not (np.isfinite(amps).all() and amps.any()):
            raise DegenerateState("amplitudes must be finite and not all zero")
        self.num_sites = num_sites
        self.sites = tuple(range(num_sites))
        self.tensor = amps
        self.slaves = {}

    @classmethod
    def _over(cls, num_sites, sites, tensor, slaves=()):
        """A state whose live ``sites`` (sorted) hold ``tensor``, taken as is."""
        state = cls.__new__(cls)
        state.num_sites, state.sites, state.tensor = num_sites, tuple(sites), tensor
        state.slaves = dict(slaves)
        return state

    @classmethod
    def ground(cls, layout):
        """Every spin in its species ground orientation."""
        return cls._over(layout.num_sites, (), np.ones(1, dtype=np.complex128))

    @classmethod
    def from_bits(cls, bits):
        """Basis state |bits> in site order; a bit that is not 0 or 1 is a ValueError."""
        for bit in bits:
            check_bit(bit)
        sites = [site for site, bit in enumerate(bits) if bit]
        tensor = np.zeros(1 << len(sites), dtype=np.complex128)
        tensor[-1] = 1.0
        return cls._over(len(bits), sites, tensor)

    @classmethod
    def product(cls, layout, nuclear_amplitudes):
        """Product state with chosen qubit-nucleus amplitudes, ancillas ground.

        ``nuclear_amplitudes`` maps qubit index to an (a0, a1) pair, which is
        normalised; omitted qubits, all electrons and the tip start in bit 0
        and stay dormant. A key that is not a qubit is MismatchedRegister, and
        a pair whose norm is zero or not finite is DegenerateState.
        """
        for qubit in nuclear_amplitudes:
            layout.check_qubit(qubit)
        sites, tensor = [], np.ones(1, dtype=np.complex128)
        for qubit in range(layout.num_qubits):
            if qubit in nuclear_amplitudes:
                factor = np.array(nuclear_amplitudes[qubit], dtype=np.complex128)
                norm = np.linalg.norm(factor)
                if not 0.0 < norm < math.inf:
                    raise DegenerateState(f"qubit {qubit} amplitudes have norm {norm}")
                sites.append(layout.nucleus_site(qubit))
                tensor = np.multiply.outer(tensor, factor / norm).reshape(-1)
        return cls._over(layout.num_sites, sites, tensor)

    @property
    def amplitudes(self):
        """The dense 2^num_sites vector, read-only.

        Dormant sites read |0> and slaved ones their source's bit.
        """
        state = self._materialised()
        if len(state.sites) == self.num_sites:
            dense = state.tensor.view()
        else:
            dense = np.zeros(1 << self.num_sites, dtype=np.complex128)
            live = set(state.sites)
            index = tuple(slice(None) if s in live else 0 for s in range(self.num_sites))
            dense.reshape((2,) * self.num_sites)[index] = state.tensor.reshape(
                (2,) * len(state.sites)
            )
        dense.flags.writeable = False
        return dense

    def copy(self):
        return PureState._over(self.num_sites, self.sites, self.tensor.copy(), self.slaves)

    def norm(self):
        """Root of ``_sum_squares`` over the tensor: no BLAS call, so no thread count moves it."""
        return math.sqrt(_sum_squares(self._materialised().tensor))

    def population(self, site, bit):
        """Total weight with ``site`` in ``bit``; a dormant site is all in bit 0.

        A site outside the register is MismatchedRegister, a bit that is not 0
        or 1 a ValueError.
        """
        _check_site(self, site)
        check_bit(bit)
        state = self._materialised()
        axis = state._axis(site)
        if axis is None:
            return 0.0 if bit else _sum_squares(state.tensor)
        return _sum_squares(_half(state.tensor, axis, bit))

    def dump_text(self):
        """One ``bitstring re im`` line per amplitude of modulus above 1e-12."""
        state = self._materialised()
        lines = []
        bits = ["0"] * self.num_sites
        for index, amp in enumerate(state.tensor):
            if abs(amp) > 1e-12:
                for site, bit in zip(state.sites, format(index, f"0{len(state.sites)}b")):
                    bits[site] = bit
                lines.append(f"{''.join(bits)} {float(amp.real)!r} {float(amp.imag)!r}")
        return "\n".join(lines) + "\n"

    def _axis(self, site):
        """Position of ``site`` among the live sites, or None if it is not live."""
        axis = bisect.bisect_left(self.sites, site)
        return axis if axis < len(self.sites) and self.sites[axis] == site else None

    def _wake(self, site):
        """Give a dormant site its axis, with an all-zero |1> half; return the axis."""
        axis = bisect.bisect_left(self.sites, site)
        woken = np.zeros(2 * self.tensor.size, dtype=np.complex128)
        half = _half(woken, axis, 0)
        half[...] = self.tensor.reshape(half.shape)
        self.sites = self.sites[:axis] + (site,) + self.sites[axis:]
        self.tensor = woken
        return axis

    def _drop(self, axis):
        """Make the live site at ``axis``, whose |1> half is zero, dormant: keep its |0> half.

        The half is copied, so the old tensor's buffer is freed even where a
        reshape of the half could have been a view into it.
        """
        self.tensor = _half(self.tensor, axis, 0).copy().reshape(-1)
        self.sites = self.sites[:axis] + self.sites[axis + 1 :]

    def _materialise(self, site):
        """Give a slaved site its axis, holding its source's bit; return the axis."""
        source = self.slaves.pop(site)
        axis = self._wake(site)
        shape, slabs, _ = _slab_plan(axis, (self._axis(source),))
        zero, one = slabs[1]  # the site's 0 and 1 slabs where the source is 1
        view = self.tensor.reshape(shape)
        view[one] = view[zero]
        view[zero] = 0.0
        return axis

    def _materialised(self):
        """This state with every slaved site materialised: itself, or a copy."""
        if not self.slaves:
            return self
        state = self.copy()
        for site in self.slaves:
            state._materialise(site)
        return state


def _check_site(state, site):
    if not is_index(site, state.num_sites):
        raise MismatchedRegister(f"site {site!r} of a {state.num_sites}-site register")


#: Partner bit patterns in ``physics.pattern_lines`` order, per partner count.
_PATTERNS = tuple(tuple(itertools.product((0, 1), repeat=r)) for r in range(3))


def _pins(partner_axes, pattern):
    """{axis: bit} that a partner pattern pins, or None if it selects nothing.

    A partner reads the live axis in ``partner_axes`` (its own, or its
    source's), or is dormant (None) and reads 0; two partners that read one
    axis must agree.
    """
    pins = {}
    for axis, bit in zip(partner_axes, pattern):
        if axis is None:
            if bit:
                return None
        elif pins.setdefault(axis, bit) != bit:
            return None
    return pins


@functools.lru_cache(maxsize=1024)
def _slab_plan(axis, partner_axes):
    """(shape, slabs, one): how to cut a flat 2^k tensor into a pulse's slabs.

    ``axis`` is the addressed site's live axis and ``partner_axes`` the live
    axes its partners read (``_pins``), so the slave map enters the key
    through them; axis 0 is the most significant bit. ``shape`` splits the
    tensor at the pinned axes, with the free axes between two of them in one
    dimension, so p pinned axes give at most 2p + 1 dimensions. Its last is
    -1, which is why k does not enter the key.
    ``slabs`` holds, per partner pattern, None when the pattern selects
    nothing, else the indices of its addressed-bit 0 and 1 slabs. ``one``
    indexes the addressed site's |1> half. Length-1 slices rather than
    integers keep every slab a view, even with every axis pinned.
    """
    pinned = sorted({axis, *(a for a in partner_axes if a is not None)})
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
        bits = _pins(partner_axes, pattern)
        slabs.append(None if bits is None else (key({**bits, axis: 0}), key({**bits, axis: 1})))
    return tuple(shape) + (-1,), tuple(slabs), key({axis: 1})


@functools.lru_cache(maxsize=1024)
def _selection(partner_axes, hits):
    """(selects, copied) of resonant ``hits`` on a site with no axis.

    ``selects`` says whether any hit pattern selects amplitude (``_pins``).
    ``copied`` is the live axis a when exactly one does and pins {a: 1}, else
    None: a swap then XORs a's bit into the site.
    """
    pinned = [_pins(partner_axes, _PATTERNS[len(partner_axes)][hit]) for hit in hits]
    selecting = [pins for pins in pinned if pins is not None]
    if len(selecting) == 1 and list(selecting[0].values()) == [1]:
        return True, next(iter(selecting[0]))
    return bool(selecting), None


def _half(tensor, axis, bit):
    """View of a flat 2^k tensor with ``axis`` pinned to ``bit``."""
    shape, slabs, _ = _slab_plan(axis, ())
    return tensor.reshape(shape)[slabs[0][bit]]


def _sum_squares(view):
    """Sum of |amplitude|^2 over ``view``: the C reduction ``np.sum`` reaches.

    The moduli are squared in place; ``np.square`` is what ``** 2`` calls.
    """
    squares = np.abs(view)
    np.square(squares, out=squares)
    return float(np.add.reduce(squares, axis=None))


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


@functools.lru_cache(maxsize=1024)
def _resolve(channel, frequency, num_qubits, tip_position, cfg):
    """(site, partners, hits, idle outcome) of a drive at this tip, memoised.

    ``hits`` are the resonant pattern indices and the idle outcome is the
    ``PulseOutcome`` of a pulse that moves nothing. A resolution is a pure
    function of these values: a pulse's angle, phase, duration and mode never
    enter it, and coordinates never enter a flip line, so ROT pulses of any
    angle, and registers that differ only in their coordinates, share an
    entry.
    """
    layout = RegisterLayout(num_qubits, tip_position=tip_position)
    site = _addressed_site(channel, layout)
    partners, lines = physics.pattern_lines(layout, cfg, site)
    hits = tuple(index for index, line in enumerate(lines)
                 if abs(line - frequency) <= cfg.selectivity_tolerance)
    count = len(hits) << (layout.num_sites - 1 - len(partners))
    return site, partners, hits, PulseOutcome(count, 0.0, True)


def apply_selective_pulse(state, pulse, layout, cfg):
    """Drive every basis pair resonant with the pulse; return (state, outcome).

    A pair (i, i^flip) of the addressed site is resonant when its flip
    frequency lies within ``cfg.selectivity_tolerance`` of the drive. That
    frequency is a function of the partner bits alone, so the test compares
    the drive with the at most four ``physics.pattern_lines`` of the site.
    A partner reads its own bit if it is live, its source's if it is
    slaved, and 0 if it is dormant. The slaves of the addressed site are
    materialised first.

    An exact pi swap on a site that is not live, where exactly one resonant
    pattern selects amplitude and it pins one live site s to 1, rewrites the
    slave map: a dormant site becomes a copy of s (if s = 1 holds any
    amplitude) and a copy of s becomes dormant. Its population is the weight
    with s = 1. Patterns that only together select "s = 1" (coinciding lines,
    as with no tip coupling) drive slabs instead.

    Any other pulse first gives an addressed site with no axis its axis,
    here and nowhere else: a slaved site is materialised, a dormant one
    woken. Every resonant pattern then names two slabs of the live tensor,
    addressed bit 0 and 1 with the partners pinned; they are swapped (exact
    pi) or rotated by the pair unitary in place. A pattern that pins a
    dormant partner to 1, or two partners reading one source to different
    bits, holds nothing and is skipped; ``resonant_pair_count`` still
    counts it, as the dense register would. A site woken for the pulse is
    dropped again undriven when no resonant slab holds amplitude, so no
    zero's sign moves; the addressed site drops out whenever its |1> half
    ends exactly zero.

    A pulse that can move nothing returns at once: one on a dormant site
    where no resonant pattern selects amplitude (a spectral miss has none),
    so the copy route cannot apply either. That pulse, and any whose
    resonant population is exactly 0.0, returns the resolution's shared idle
    outcome.

    The given state is driven (its tensor may be replaced) and returned.
    """
    if state.num_sites != layout.num_sites:
        raise MismatchedRegister(
            f"state of {state.num_sites} sites under a {layout.num_sites}-site layout"
        )
    site, partners, hits, idle = _resolve(
        pulse.channel, pulse.frequency, layout.num_qubits, layout.tip_position, cfg
    )
    swap = pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi
    slaves = state.slaves
    source = slaves.get(site)
    axis = state._axis(site)
    if axis is not None and slaves:
        for slave in [slave for slave, of in slaves.items() if of == site]:
            state._materialise(slave)
        axis = state._axis(site)
    sources = tuple(slaves.get(partner, partner) for partner in partners) if slaves else partners
    woken = axis is None and source is None
    if axis is None:
        # A site that is not live is no slave's source, so nothing was materialised.
        selects, copied = _selection(tuple(map(state._axis, sources)), hits)
        if source is None and not selects:
            return state, idle
        if swap and copied is not None and source in (None, state.sites[copied]):
            half = _half(state.tensor, copied, 1)
            population = _sum_squares(half)
            if source is not None:
                del slaves[site]
            elif population > 0.0 or _any(half):  # a live-site engine wakes no empty site
                slaves[site] = state.sites[copied]
            return state, _outcome(idle, population)
        axis = state._wake(site) if woken else state._materialise(site)
    population = _drive(state, pulse, axis, tuple(map(state._axis, sources)), hits, swap, woken)
    return state, _outcome(idle, population)


def _outcome(idle, population):
    """The outcome of a pulse that moved ``population``: the shared idle one for 0.0."""
    if population == 0.0:
        return idle
    return PulseOutcome(
        resonant_pair_count=idle.resonant_pair_count,
        resonant_population=population,
        no_resonant_transition=population <= IDLE_POPULATION,
    )


def _drive(state, pulse, axis, axes, hits, swap, woken):
    """Swap or rotate the resonant slabs of the site at ``axis``; return their weight.

    ``axes`` are the live axes the site's partners read. A site that was
    ``woken`` for this pulse is dropped again, undriven, when no resonant
    slab of its |0> half holds amplitude.
    """
    shape, slabs, one = _slab_plan(axis, axes)
    view = state.tensor.reshape(shape)
    occupied = [index for index in hits if slabs[index] is not None]
    population = 0.0
    if not woken or any(_any(view[slabs[index][0]]) for index in occupied):
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
        state._drop(axis)
    return population


def measure_spin(state, site, rng):
    """Projectively measure one site; return (bit, collapsed state, probability).

    ``rng`` is a seeded ``numpy.random.Generator`` (or a seed for one); exactly
    one draw is consumed, so measurement streams are reproducible. Every
    slaved site is materialised first, so the collapse's sums run over the
    layout a live-site engine holds and no source with slaves drops.

    Each half of the site is summed once, s0 and s1 (a dormant site's s0 is
    the whole tensor and its s1 is 0.0), and p(1) = s1 / (s0 + s1). The
    losing half is zeroed and the kept tensor divided by sqrt of its own
    sum, unless that is exactly 1.0; a site that keeps bit 0 then drops out,
    keeping half the tensor. The sums are ``_sum_squares``' pairwise C
    reductions and no BLAS call is made, so the bits do not depend on the
    host's BLAS threads. The given state is collapsed (its tensor may be
    replaced) and returned. A site outside the register is MismatchedRegister.
    """
    _check_site(state, site)
    rng = np.random.default_rng(rng)
    for slave in tuple(state.slaves):
        state._materialise(slave)
    tensor = state.tensor
    axis = state._axis(site)
    if axis is None:
        s0, s1 = _sum_squares(tensor), 0.0
    else:
        shape, slabs, _ = _slab_plan(axis, ())
        view = tensor.reshape(shape)
        halves = slabs[0]
        s0, s1 = _sum_squares(view[halves[0]]), _sum_squares(view[halves[1]])
    total = s0 + s1
    if not math.sqrt(total) >= 1e-9:
        raise DegenerateState(f"state norm {math.sqrt(total):.3e} is too small to measure")
    p_one = s1 / total
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    if axis is not None:
        view[halves[1 - bit]] = 0.0
        if bit == 0:
            state._drop(axis)
    norm = math.sqrt(s1 if bit == 1 else s0)
    if norm != 1.0:
        state.tensor /= norm
    return bit, state, probability


def thermal_ground_probability(species, cfg):
    """Boltzmann weight of the ground orientation at the bare Zeeman splitting."""
    splitting = physics.zeeman_splitting(species, cfg)
    x = PLANCK_CONSTANT * splitting / (BOLTZMANN_CONSTANT * cfg.temperature)
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
    after a compiled gate every ancilla is dormant and M is one row. A state
    with slaved sites is read through a materialised copy.
    """
    state = state._materialised()
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
