"""Diagonal spin Hamiltonian: energies, transition lines, reference formulas.

Basis states are energy eigenstates here, so every configuration has a sharp
energy (in Hz) and every single-spin flip a sharp transition frequency,
evaluated in extended precision and rounded once to float64. A flip line
depends only on the bits of the site's partners (``partner_sites``), so a site
has at most four (``pattern_lines``). Drive lines, readout lines and the
spectral-gap scan read them from one table, ``one_qubit_lines``.
"""

import functools
import itertools
import math
import types

import numpy as np

from .config import BOHR_MAGNETON, NUCLEAR_MAGNETON, PLANCK_CONSTANT, SPECIES_INFO, Species
from .errors import ConfigError, MismatchedRegister
from .register import PARKED, RegisterLayout, check_bit

_EXACT = np.longdouble


def _zeeman_coefficient(species, cfg):
    """Signed dE/dm of one species in the static field, in Hz, in extended precision.

    Positive for the electron (moment anti-parallel to spin), negative for
    both nuclear species; the sign is what makes "down" the electron ground
    orientation and "up" the nuclear one.
    """
    info = SPECIES_INFO[species]
    magneton = BOHR_MAGNETON if info.uses_bohr_magneton else -NUCLEAR_MAGNETON
    scale = _EXACT(info.g_factor) * _EXACT(magneton)
    return scale / _EXACT(PLANCK_CONSTANT) * _EXACT(cfg.magnetic_field)


def zeeman_splitting(species, cfg):
    """Bare two-level splitting (Hz) of one species in the static field, rounded once."""
    return float(abs(_zeeman_coefficient(species, cfg)))


def _check_config(config, layout):
    """Raise unless ``config`` holds one bit, 0 or 1, per site of ``layout``."""
    if len(config) != layout.num_sites:
        raise MismatchedRegister(
            f"configuration of {len(config)} bits for a {layout.num_sites}-site register"
        )
    for bit in config:
        check_bit(bit)


def configuration_energy(config, layout, cfg):
    """Total energy (Hz) of one basis configuration under the current tip.

    Each qubit contributes electron and nuclear Zeeman terms plus their
    hyperfine product term, using the tip-modified coupling when the tip sits
    on that qubit. The tip carbon contributes its Zeeman term always and its
    electron coupling only while the tip is over a qubit. A bit that is not
    0 or 1 is a ValueError.
    """
    _check_config(config, layout)
    m = [
        _EXACT(SPECIES_INFO[layout.species_of(s)].m_of_bit(config[s]))
        for s in range(layout.num_sites)
    ]
    z_electron = _zeeman_coefficient(Species.ELECTRON, cfg)
    z_nucleus = _zeeman_coefficient(Species.PHOSPHORUS_NUCLEUS, cfg)
    z_tip = _zeeman_coefficient(Species.TIP_CARBON_NUCLEUS, cfg)
    total = _EXACT(0.0)
    for q in range(layout.num_qubits):
        m_n = m[layout.nucleus_site(q)]
        m_e = m[layout.electron_site(q)]
        coupling = cfg.hyperfine_tip_modified if layout.tip_position == q else cfg.hyperfine_bare
        total += z_electron * m_e + z_nucleus * m_n + _EXACT(coupling) * m_e * m_n
    m_tip = m[layout.tip_site]
    total += z_tip * m_tip
    if layout.tip_position is not PARKED:
        m_e = m[layout.electron_site(layout.tip_position)]
        total += _EXACT(cfg.tip_hyperfine) * m_e * m_tip
    return float(total)


def partner_sites(layout, site):
    """Sites whose bits the flip line of ``site`` depends on, at most two.

    A nucleus and its electron are partners; while the tip is engaged, the
    tip carbon and the electron under it are partners too. Every other bit of
    the register leaves the line alone.
    """
    if site == layout.tip_site:
        if layout.tip_position is PARKED:
            return ()
        return (layout.electron_site(layout.tip_position),)
    qubit = layout.qubit_of(site)
    if layout.species_of(site) is Species.PHOSPHORUS_NUCLEUS:
        return (layout.electron_site(qubit),)
    if layout.tip_position == qubit:
        return (layout.nucleus_site(qubit), layout.tip_site)
    return (layout.nucleus_site(qubit),)


def _coupling(layout, cfg, site, partner):
    """Hyperfine constant (Hz) between two partner sites under the current tip."""
    if layout.tip_site in (site, partner):
        return cfg.tip_hyperfine
    if layout.tip_position == layout.qubit_of(site):
        return cfg.hyperfine_tip_modified
    return cfg.hyperfine_bare


def _flip_magnitudes(layout, cfg, site, partner_bits):
    """|dE| for flipping ``site``, in extended precision.

    ``partner_bits`` holds one bit, or one bit array, per ``partner_sites``
    entry. Because the energy is bilinear, the flip magnitude is the site's
    Zeeman coefficient plus its coupling terms evaluated at the partner spins.
    """
    delta = _zeeman_coefficient(layout.species_of(site), cfg)
    for partner, bits in zip(partner_sites(layout, site), partner_bits):
        info = SPECIES_INFO[layout.species_of(partner)]
        m = np.where(bits == 0, _EXACT(info.m_of_bit(0)), _EXACT(info.m_of_bit(1)))
        delta = delta + _EXACT(_coupling(layout, cfg, site, partner)) * m
    return np.abs(delta)


def _transition_exact(config, site, layout, cfg):
    return _flip_magnitudes(layout, cfg, site, [config[p] for p in partner_sites(layout, site)])


def pattern_lines(layout, cfg, site):
    """(partners, flip line of ``site`` per partner bit pattern).

    Patterns run in ``itertools.product((0, 1), repeat=len(partners))`` order.
    """
    partners = partner_sites(layout, site)
    return partners, tuple(
        float(_flip_magnitudes(layout, cfg, site, bits))
        for bits in itertools.product((0, 1), repeat=len(partners))
    )


def transition_frequency(config, spin_site, layout, cfg):
    """Frequency (Hz) of flipping ``spin_site`` out of basis state ``config``.

    Equals |E(flipped) - E(config)| and is the line a resonant pulse must hit.
    A bit that is not 0 or 1 is a ValueError.
    """
    _check_config(config, layout)
    layout.species_of(spin_site)  # bounds check
    return float(_transition_exact(tuple(config), spin_site, layout, cfg))


def site_flip_frequency_array(layout, cfg, site):
    """Flip frequency of ``site`` for every basis index, as a float64 array.

    Index ``i`` and its flipped partner get identical values (the partner
    spins are what the frequency depends on); a vectorised reference route.
    """
    n = layout.num_sites
    indices = np.arange(layout.dimension, dtype=np.int64)
    bits = [(indices >> (n - 1 - p)) & 1 for p in partner_sites(layout, site)]
    lines = _flip_magnitudes(layout, cfg, site, bits)
    return np.broadcast_to(lines, indices.shape).astype(np.float64)


def closed_form_frequencies(cfg):
    """The six protocol line positions, written as textbook closed forms.

    Deliberately independent of the engine's energy walk — these are the
    formulas an operator would derive by hand, kept as a cross-check route
    (see frequency_audit). Keys name the pulse's role:

    - single_qubit_rotation: qubit nuclear line driven for Rot, tip engaged
    - control_electron: control-side electron line of the entangling sequence
    - tip_nucleus: tip-carbon line conditioned on the local electron
    - target_electron_upper / _lower: target electron lines for both nuclear
      orientations, tip engaged
    - target_nucleus: target-side nuclear line of the entangling sequence
    """
    return {name: float(value) for name, value in _closed_forms_exact(cfg).items()}


def _larmor_exact(species, magneton, cfg):
    """Closed-form Larmor frequency g * magneton / h * B, in extended precision."""
    ld = _EXACT
    return (
        ld(SPECIES_INFO[species].g_factor)
        * ld(magneton)
        / ld(PLANCK_CONSTANT)
        * ld(cfg.magnetic_field)
    )


def _closed_forms_exact(cfg):
    ld = _EXACT
    electron = _larmor_exact(Species.ELECTRON, BOHR_MAGNETON, cfg)
    nucleus = _larmor_exact(Species.PHOSPHORUS_NUCLEUS, NUCLEAR_MAGNETON, cfg)
    tip = _larmor_exact(Species.TIP_CARBON_NUCLEUS, NUCLEAR_MAGNETON, cfg)
    half_mod = ld(0.5) * ld(cfg.hyperfine_tip_modified)
    half_tip = ld(0.5) * ld(cfg.tip_hyperfine)
    return {
        "single_qubit_rotation": np.abs(nucleus - half_mod),
        "control_electron": electron + half_tip - half_mod,
        "tip_nucleus": np.abs(tip - half_tip),
        "target_electron_upper": electron + half_mod + half_tip,
        "target_electron_lower": electron - half_mod + half_tip,
        "target_nucleus": np.abs(nucleus - half_mod),
    }


def modulation_frequency(p_bit, a_bit, cfg):
    """Readout line (Hz) seen in the tunneling current for given nuclear bits.

    The current is modulated at the local electron resonance, whose position
    encodes both the qubit nucleus bit ``p_bit`` and the tip carbon bit
    ``a_bit`` while the tip sits on the qubit. Bit 0 shifts its term up
    (ground nuclear orientation raises the electron line under this sign
    convention), bit 1 down.
    """
    if p_bit not in (0, 1) or a_bit not in (0, 1):
        raise ValueError(f"bits must be 0 or 1, got {p_bit!r}, {a_bit!r}")
    ld = _EXACT
    base = _larmor_exact(Species.ELECTRON, BOHR_MAGNETON, cfg)
    tip_term = ld(0.5) * ld(cfg.tip_hyperfine)
    qubit_term = ld(0.5) * ld(cfg.hyperfine_tip_modified)
    value = base
    value = value + (tip_term if a_bit == 0 else -tip_term)
    value = value + (qubit_term if p_bit == 0 else -qubit_term)
    return float(value)


_AUDIT_ADDRESSED = {
    "single_qubit_rotation": "nucleus",
    "control_electron": "electron",
    "tip_nucleus": "tip",
    "target_electron_upper": "electron",
    "target_electron_lower": "electron",
    "target_nucleus": "nucleus",
}


def frequency_audit(cfg):
    """Compare every closed form against engine flips on a one-qubit register.

    For each formula the addressed spin is flipped with every spectator
    configuration of the other two spins (tip parked on the qubit); the entry
    lists which spectator assignments reproduce the formula within 1e-6 Hz.
    Residuals are evaluated in extended precision so the comparison stays
    meaningful at 1e11 Hz line positions. A formula with an empty match list
    means the two routes disagree everywhere — a genuine physics bug on one
    side.
    """
    layout = RegisterLayout(1, tip_position=0)
    sites = {
        "nucleus": layout.nucleus_site(0),
        "electron": layout.electron_site(0),
        "tip": layout.tip_site,
    }
    entries = []
    for name, reference in _closed_forms_exact(cfg).items():
        addressed = _AUDIT_ADDRESSED[name]
        spectators = [s for s in ("nucleus", "electron", "tip") if s != addressed]
        matches = []
        best_residual = None
        for bits in itertools.product((0, 1), repeat=len(spectators)):
            config = [0, 0, 0]
            for spectator, bit in zip(spectators, bits):
                config[sites[spectator]] = bit
            engine = _transition_exact(tuple(config), sites[addressed], layout, cfg)
            residual = float(np.abs(engine - reference))
            record = {
                "spectators": dict(zip(spectators, bits)),
                "engine_hz": float(engine),
                "residual_hz": residual,
            }
            if best_residual is None or residual < best_residual:
                best_residual = residual
            if residual <= 1e-6:
                matches.append(record)
        entries.append(
            {
                "formula": name,
                "formula_hz": float(reference),
                "addressed": addressed,
                "matches": matches,
                "matched": bool(matches),
                "best_residual_hz": best_residual,
            }
        )
    return entries


@functools.lru_cache(maxsize=8)
def one_qubit_lines(cfg):
    """The one line table: the ``pattern_lines`` of a one-qubit register, memoised.

    Maps the tip position (0, engaged, or PARKED) to the lines of sites 0, 1
    and 2 (nucleus, electron, tip carbon). Couplings are uniform across
    qubits, so these are the lines of every qubit of every register.
    """
    layouts = [RegisterLayout(1, tip_position=tip) for tip in (0, PARKED)]
    return types.MappingProxyType({
        layout.tip_position: tuple(pattern_lines(layout, cfg, site)[1] for site in range(3))
        for layout in layouts
    })


def min_spectral_gap(cfg):
    """Smallest gap (Hz) between distinct transition lines of a one-qubit register.

    Scans every line of ``one_qubit_lines``, both tip positions. Nearly equal
    values are clustered with a relative epsilon before taking gaps, so
    exactly degenerate lines do not report a spurious zero; what remains is
    the resolution a selective pulse must beat. A line that overflows float64
    is a ConfigError.
    """
    values = sorted(line for sites in one_qubit_lines(cfg).values() for s in sites for line in s)
    if not all(map(math.isfinite, values)):
        raise ConfigError("transition lines overflow float64 (above 1.8e308 Hz)")
    atol = values[-1] * 1e-9  # lines are magnitudes, so the last is the span
    clusters = [values[0]]
    for value in values[1:]:
        if value - clusters[-1] > atol:
            clusters.append(value)
    gaps = [b - a for a, b in zip(clusters, clusters[1:])]
    return min(gaps) if gaps else float("inf")
