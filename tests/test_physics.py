"""Energies and transition lines against independently computed expectations.

Every expected number here is produced by a tiny in-test oracle (longhand
float arithmetic from raw constants) or frozen as a literal from that oracle
— none of it flows through the package's own formula code.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from spintip import (
    PARKED,
    MachineConfig,
    RegisterLayout,
    Species,
    closed_form_frequencies,
    configuration_energy,
    frequency_audit,
    min_spectral_gap,
    modulation_frequency,
    site_flip_frequency_array,
    transition_frequency,
    zeeman_splitting,
)
from spintip import physics
from spintip.errors import MismatchedRegister
from spintip.physics import one_qubit_lines, pattern_lines

CFG = MachineConfig()
# Distinct couplings so tip-present and tip-absent cases cannot be confused.
SPLIT_CFG = dataclasses.replace(CFG, hyperfine_bare=90e6, hyperfine_tip_modified=130e6)

# ---------------------------------------------------------------------------
# In-test oracle: signed dE/dm Zeeman coefficients in Hz at the default 5 T,
# straight from the raw constants (CODATA 2018).
MU_B = 9.2740100783e-24
MU_N = 5.0507837461e-27
H = 6.62607015e-34
ELECTRON_COEFF = 2.0 * MU_B / H * 5.0  # +1.39962e11 Hz
NUCLEUS_COEFF = -2.26 * MU_N / H * 5.0  # -8.6135e7 Hz
TIP_COEFF = -1.4048 * MU_N / H * 5.0  # -5.3541e7 Hz


def oracle_energy(n_bit, e_bit, a_bit, coupling, tip_coupling, tip_present):
    """Single-qubit register energy, written out longhand."""
    m_n = 0.5 if n_bit == 0 else -0.5
    m_e = -0.5 if e_bit == 0 else 0.5
    m_a = 0.5 if a_bit == 0 else -0.5
    energy = ELECTRON_COEFF * m_e + NUCLEUS_COEFF * m_n + coupling * m_e * m_n
    energy += TIP_COEFF * m_a
    if tip_present:
        energy += tip_coupling * m_e * m_a
    return energy


def test_all_ground_energy_frozen_value():
    layout = RegisterLayout(1, tip_position=0)
    computed = configuration_energy((0, 0, 0), layout, CFG)
    assert computed == pytest.approx(oracle_energy(0, 0, 0, 120e6, 2e9, True), rel=1e-12)
    assert computed == pytest.approx(-70581062879.5286, abs=1e-2)


@pytest.mark.parametrize("tip", [0, PARKED])
@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
def test_every_configuration_energy_matches_oracle(bits, tip):
    layout = RegisterLayout(1, tip_position=tip)
    coupling = 130e6 if tip == 0 else 90e6
    expected = oracle_energy(*bits, coupling, 2e9, tip == 0)
    assert configuration_energy(bits, layout, SPLIT_CFG) == pytest.approx(expected, rel=1e-12)


def test_zero_field_zero_coupling_energy_vanishes():
    flat = dataclasses.replace(
        CFG, magnetic_field=1e-300, hyperfine_bare=0.0, hyperfine_tip_modified=0.0, tip_hyperfine=0.0
    )
    layout = RegisterLayout(1, tip_position=0)
    for bits in itertools.product((0, 1), repeat=3):
        assert configuration_energy(bits, layout, flat) == pytest.approx(0.0, abs=1e-280)


def test_transition_equals_energy_difference():
    rng = np.random.default_rng(5)
    layout = RegisterLayout(2, tip_position=1)
    for _ in range(50):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=5))
        site = int(rng.integers(5))
        flipped = list(bits)
        flipped[site] ^= 1
        delta = abs(
            configuration_energy(tuple(flipped), layout, SPLIT_CFG)
            - configuration_energy(bits, layout, SPLIT_CFG)
        )
        assert transition_frequency(bits, site, layout, SPLIT_CFG) == pytest.approx(
            delta, rel=1e-9, abs=1e-3
        )


def test_bare_zeeman_splittings_frozen():
    assert zeeman_splitting(Species.ELECTRON, CFG) == pytest.approx(abs(ELECTRON_COEFF), rel=1e-13)
    assert zeeman_splitting(Species.ELECTRON, CFG) == pytest.approx(139962449360.727, abs=1e-2)
    assert zeeman_splitting(Species.PHOSPHORUS_NUCLEUS, CFG) == pytest.approx(
        86135303.48894662, abs=1e-5
    )
    assert zeeman_splitting(Species.TIP_CARBON_NUCLEUS, CFG) == pytest.approx(
        53541094.841270894, abs=1e-5
    )


# Splittings frozen from the float64 longhand g * magneton / h * B, which the
# extended-precision route rounded once reproduces at these fields.
FROZEN_SPLITTINGS = {
    1.0: (27992489872.14541, 17227060.697789323, 10708218.968254179),
    7.77: (217501646306.56982, 133854261.62182303, 83202861.38333496),
    12.5: (349906123401.8176, 215338258.72236654, 133852737.10317723),
}
SPECIES_CONSTANTS = (
    (Species.ELECTRON, 2.0, MU_B),
    (Species.PHOSPHORUS_NUCLEUS, 2.26, MU_N),
    (Species.TIP_CARBON_NUCLEUS, 1.4048, MU_N),
)


@pytest.mark.parametrize("field", sorted(FROZEN_SPLITTINGS))
def test_zeeman_splittings_frozen_across_fields(field):
    cfg = dataclasses.replace(CFG, magnetic_field=field)
    for (species, _, _), expected in zip(SPECIES_CONSTANTS, FROZEN_SPLITTINGS[field]):
        assert zeeman_splitting(species, cfg) == expected


@pytest.mark.parametrize("field", [0.3, 1.0, 5.0, 7.77, 12.5])
def test_zeeman_splitting_is_rounded_once(field):
    # At 0.3 T the tip carbon's float64 longhand is one ulp off this.
    ld = np.longdouble
    cfg = dataclasses.replace(CFG, magnetic_field=field)
    for species, g, magneton in SPECIES_CONSTANTS:
        exact = ld(g) * ld(magneton) / ld(H) * ld(field)
        assert zeeman_splitting(species, cfg) == float(exact)


# Electron line under the tip for each (nucleus bit, tip bit), frozen from the
# oracle |ELECTRON_COEFF + 120e6 * m_n + 2e9 * m_a|.
ELECTRON_LINES = {
    (0, 0): 141022449360.72705,
    (0, 1): 139022449360.72705,
    (1, 0): 140902449360.72705,
    (1, 1): 138902449360.72705,
}


@pytest.mark.parametrize("pair", sorted(ELECTRON_LINES))
def test_electron_lines_under_tip(pair):
    p_bit, a_bit = pair
    m_n = 0.5 if p_bit == 0 else -0.5
    m_a = 0.5 if a_bit == 0 else -0.5
    expected = abs(ELECTRON_COEFF + 120e6 * m_n + 2e9 * m_a)
    layout = RegisterLayout(1, tip_position=0)
    line = transition_frequency((p_bit, 0, a_bit), 1, layout, CFG)
    assert line == pytest.approx(expected, rel=1e-12)
    assert line == pytest.approx(ELECTRON_LINES[pair], abs=1e-4)


def test_nuclear_lines_ignore_the_tip_bit():
    # No nucleus-nucleus coupling exists, so only the electron bit matters:
    # |NUCLEUS_COEFF + 120e6 * m_e| = 146.135 MHz (ground e) / 26.135 MHz.
    layout = RegisterLayout(1, tip_position=0)
    for a_bit in (0, 1):
        assert transition_frequency((0, 0, a_bit), 0, layout, CFG) == pytest.approx(
            146135303.48894662, abs=1e-5
        )
        assert transition_frequency((0, 1, a_bit), 0, layout, CFG) == pytest.approx(
            26135303.488946617, abs=1e-5
        )


def test_tip_line_follows_the_local_electron():
    layout = RegisterLayout(1, tip_position=0)
    assert transition_frequency((0, 0, 0), 2, layout, CFG) == pytest.approx(
        1053541094.8412709, abs=1e-5
    )
    assert transition_frequency((0, 1, 0), 2, layout, CFG) == pytest.approx(
        946458905.1587291, abs=1e-5
    )
    parked = RegisterLayout(1)
    for e_bit in (0, 1):
        assert transition_frequency((0, e_bit, 0), 2, parked, CFG) == pytest.approx(
            53541094.841270894, abs=1e-5
        )


def test_closed_forms_frozen_values():
    forms = closed_form_frequencies(CFG)
    assert forms["single_qubit_rotation"] == pytest.approx(26135303.488946617, abs=1e-5)
    assert forms["control_electron"] == pytest.approx(140902449360.72705, abs=1e-4)
    assert forms["tip_nucleus"] == pytest.approx(946458905.1587291, abs=1e-5)
    assert forms["target_electron_upper"] == pytest.approx(141022449360.72705, abs=1e-4)
    assert forms["target_electron_lower"] == pytest.approx(140902449360.72705, abs=1e-4)
    assert forms["target_nucleus"] == forms["single_qubit_rotation"]


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        SPLIT_CFG,
        dataclasses.replace(CFG, magnetic_field=3.3, hyperfine_tip_modified=77e6),
    ],
)
def test_target_electron_lines_split_by_the_modified_coupling(cfg):
    forms = closed_form_frequencies(cfg)
    split = forms["target_electron_upper"] - forms["target_electron_lower"]
    assert split == pytest.approx(cfg.hyperfine_tip_modified, abs=1e-3)


def test_forms_collapse_to_the_larmor_line_without_couplings():
    bare = dataclasses.replace(CFG, hyperfine_tip_modified=0.0, tip_hyperfine=0.0)
    forms = closed_form_frequencies(bare)
    assert forms["control_electron"] == pytest.approx(abs(ELECTRON_COEFF), rel=1e-13)
    assert forms["target_electron_upper"] == pytest.approx(abs(ELECTRON_COEFF), rel=1e-13)
    assert forms["tip_nucleus"] == pytest.approx(abs(TIP_COEFF), rel=1e-13)


@pytest.mark.parametrize("scale", [4.0, 3.0, 0.25])
def test_lines_scale_linearly_with_field_and_couplings(scale):
    scaled = dataclasses.replace(
        CFG,
        magnetic_field=5.0 * scale,
        hyperfine_bare=120e6 * scale,
        hyperfine_tip_modified=120e6 * scale,
        tip_hyperfine=2e9 * scale,
    )
    layout = RegisterLayout(1, tip_position=0)
    for bits in itertools.product((0, 1), repeat=3):
        for site in range(3):
            base = transition_frequency(bits, site, layout, CFG)
            assert transition_frequency(bits, site, layout, scaled) == pytest.approx(
                scale * base, rel=1e-14
            )


def test_vectorized_lines_agree_with_the_scalar_route():
    layout = RegisterLayout(2, tip_position=0)
    for site in range(layout.num_sites):
        lines = site_flip_frequency_array(layout, SPLIT_CFG, site)
        assert lines.shape == (32,)
        for index in range(32):
            bits = tuple((index >> (4 - s)) & 1 for s in range(5))
            assert lines[index] == pytest.approx(
                transition_frequency(bits, site, layout, SPLIT_CFG), rel=1e-12
            )
        # Flipping the addressed site itself never changes its own line.
        partners = np.arange(32) ^ (1 << (4 - site))
        assert np.array_equal(lines, lines[partners])


@pytest.mark.parametrize("cfg", [CFG, SPLIT_CFG], ids=["default", "split"])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_pattern_lines_are_the_scalar_route_bit_for_bit(num_qubits, cfg):
    # The one line table the engine, compiler, readout and gap scan read must
    # be the extended-precision scalar line rounded once, whatever the
    # spectator bits, for every tip position (parked too) and every site.
    for tip in [*range(num_qubits), PARKED]:
        layout = RegisterLayout(num_qubits, tip_position=tip)
        for site in range(layout.num_sites):
            partners, lines = pattern_lines(layout, cfg, site)
            patterns = list(itertools.product((0, 1), repeat=len(partners)))
            assert len(lines) == len(patterns)
            for line, bits in zip(lines, patterns):
                for spectator in (0, 1):
                    config = [spectator] * layout.num_sites
                    for partner, bit in zip(partners, bits):
                        config[partner] = bit
                    assert line == transition_frequency(config, site, layout, cfg)


@pytest.mark.parametrize("tip", [0, PARKED])
@pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=3)))
def test_a_line_on_33_qubits_is_the_one_qubit_line(bits, tip):
    # 67 sites, spectators all 1: a packed basis index would not fit in 64 bits.
    solo = RegisterLayout(1, tip_position=tip)
    wide = RegisterLayout(33, tip_position=None if tip is PARKED else 32)
    config = [1] * wide.num_sites
    config[wide.nucleus_site(32)], config[wide.electron_site(32)], config[wide.tip_site] = bits
    pairs = [(solo.nucleus_site(0), wide.nucleus_site(32)),
             (solo.electron_site(0), wide.electron_site(32)),
             (solo.tip_site, wide.tip_site)]
    for solo_site, wide_site in pairs:
        assert transition_frequency(config, wide_site, wide, CFG) == transition_frequency(
            bits, solo_site, solo, CFG
        )


def test_modulation_lines_are_the_under_tip_electron_transitions():
    layout = RegisterLayout(1, tip_position=0)
    for p_bit in (0, 1):
        for a_bit in (0, 1):
            engine_line = transition_frequency((p_bit, 0, a_bit), 1, layout, CFG)
            assert modulation_frequency(p_bit, a_bit, CFG) == pytest.approx(
                engine_line, abs=1e-6
            )


def test_modulation_gap_is_the_modified_coupling():
    for a_bit in (0, 1):
        gap = modulation_frequency(0, a_bit, CFG) - modulation_frequency(1, a_bit, CFG)
        assert gap == pytest.approx(120e6, abs=1e-3)


def test_modulation_rejects_non_bits():
    with pytest.raises(ValueError):
        modulation_frequency(2, 0, CFG)


def test_audit_matches_every_formula_within_a_microhertz():
    entries = frequency_audit(CFG)
    assert len(entries) == 6
    for entry in entries:
        assert entry["matched"], entry["formula"]
        assert entry["best_residual_hz"] <= 1e-6


def test_audit_identifies_the_matching_spectators():
    entries = {entry["formula"]: entry for entry in frequency_audit(CFG)}

    def spectators(name):
        return [match["spectators"] for match in entries[name]["matches"]]

    # The rotation form reproduces the nuclear line whose electron spectator
    # is *excited*; the tip bit is irrelevant for nuclear lines so both appear.
    assert {"electron": 1, "tip": 0} in spectators("single_qubit_rotation")
    assert {"electron": 1, "tip": 1} in spectators("single_qubit_rotation")
    assert spectators("control_electron") == [{"nucleus": 1, "tip": 0}]
    assert spectators("target_electron_upper") == [{"nucleus": 0, "tip": 0}]
    assert spectators("target_electron_lower") == [{"nucleus": 1, "tip": 0}]
    assert all(match["electron"] == 1 for match in spectators("tip_nucleus"))


def test_audit_reports_a_form_it_cannot_match(monkeypatch):
    # A closed form with its sign lost: the engine only produces magnitudes,
    # so an honest audit must report no match for it, and only for it.
    exact = physics._closed_forms_exact

    def wrong(cfg):
        forms = exact(cfg)
        forms["single_qubit_rotation"] = -forms["single_qubit_rotation"]
        return forms

    monkeypatch.setattr(physics, "_closed_forms_exact", wrong)
    entries = {entry["formula"]: entry for entry in frequency_audit(CFG)}
    assert not entries["single_qubit_rotation"]["matched"]
    assert entries["single_qubit_rotation"]["best_residual_hz"] > 1e6
    others = [entry for name, entry in entries.items() if name != "single_qubit_rotation"]
    assert all(entry["matched"] for entry in others)


def test_nuclear_forms_stay_magnitudes_past_twice_the_larmor_frequency():
    # Beyond twice the nuclear Larmor frequency (172 MHz at 5 T), nucleus -
    # half the modified coupling is negative; the lines are its magnitude.
    strong = dataclasses.replace(CFG, hyperfine_tip_modified=300e6)
    entries = {entry["formula"]: entry for entry in frequency_audit(strong)}
    assert all(entry["matched"] for entry in entries.values())
    forms = closed_form_frequencies(strong)
    assert forms["single_qubit_rotation"] == forms["target_nucleus"] > 0


def test_min_spectral_gap_frozen():
    # Parked tip-carbon line (53.541 MHz) against the shifted nuclear line
    # (26.135 MHz): 27.405791 MHz is the tightest squeeze at defaults.
    expected = abs(TIP_COEFF) - abs(NUCLEUS_COEFF + 120e6 * 0.5)
    assert min_spectral_gap(CFG) == pytest.approx(expected, rel=1e-9)
    assert min_spectral_gap(CFG) == pytest.approx(27405791.352, abs=1.0)


def test_the_gap_memo_is_bounded():
    # Validating every config of a field sweep must not keep a line table for
    # each; the gap and every drive and readout line are read from that table.
    bound = one_qubit_lines.cache_info().maxsize
    assert bound is not None
    for step in range(3 * bound):
        dataclasses.replace(CFG, magnetic_field=1.0 + step / 8).validate()
    assert one_qubit_lines.cache_info().currsize == bound


def test_register_mismatch_rejected():
    layout = RegisterLayout(1)
    with pytest.raises(MismatchedRegister):
        configuration_energy((0, 0), layout, CFG)
    with pytest.raises(MismatchedRegister):
        transition_frequency((0, 0, 0, 0), 0, layout, CFG)


@pytest.mark.parametrize("bad", [3, -1, 2, 0.5, None, "1"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_configuration_bit_that_is_not_0_or_1_is_refused(bad, where):
    layout = RegisterLayout(1, tip_position=0)
    config = [0, 0, 0]
    config[where] = bad
    with pytest.raises(ValueError, match="a bit must be 0 or 1"):
        configuration_energy(tuple(config), layout, CFG)
    for site in range(layout.num_sites):
        with pytest.raises(ValueError, match="a bit must be 0 or 1"):
            transition_frequency(tuple(config), site, layout, CFG)


def test_true_and_one_point_zero_read_as_1():
    layout = RegisterLayout(1, tip_position=0)
    energy = configuration_energy((1, 0, 1), layout, CFG)
    line = transition_frequency((1, 0, 1), 1, layout, CFG)
    for bit in (True, 1.0, np.int64(1)):
        assert configuration_energy((bit, 0, bit), layout, CFG) == energy
        assert transition_frequency((bit, 0, bit), 1, layout, CFG) == line
