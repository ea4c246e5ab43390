"""
Thermal initialization and current readout
==========================================

At 5 T and 1 K the electrons freeze out but the nuclei stay a coin flip, so a
register needs active initialization: measure each nucleus through the
tunneling current, flip it back if it reads |1>, and retry on the shifted
line in case the local electron was thermally excited. The second half
synthesizes noisy current traces and recovers the readout line by peak
detection.
"""

import math
from collections import Counter

import numpy as np

from spintip import (
    MachineConfig,
    PureState,
    RegisterLayout,
    Species,
    classify_frequency,
    compile_init,
    detect_peak,
    execute,
    modulation_frequency,
    synth_trace,
    thermal_ground_probability,
    thermal_sample,
)

cfg = MachineConfig()
layout = RegisterLayout(2)

print("thermal ground-state probabilities at defaults")
for species in Species:
    p = thermal_ground_probability(species, cfg)
    print(f"  {species.value:22s} {p:.6f}")

# Sample a few hundred thermal registers and tally how they start out.
counts = Counter()
for seed in range(400):
    bits = thermal_sample(layout, cfg, np.random.default_rng(seed))
    counts["nuclei ground"] += (bits[0] == 0) + (bits[2] == 0)
    counts["electrons ground"] += (bits[1] == 0) + (bits[3] == 0)
print(f"\nof 800 sampled nuclei, {counts['nuclei ground']} start in |0> "
      f"(about half, as the splitting is tiny against kT)")
print(f"of 800 sampled electrons, {counts['electrons ground']} start in |0>")

# The verify-and-correct program: measure, conditionally flip, re-check.
program = compile_init(layout, cfg)
hot = (1, 1, 0, 0, 0)  # nucleus 0 flipped AND its electron excited
result = execute(program, PureState.from_bits(hot), layout, cfg, rng=7)
fired = [index for index, outcome in result.pulse_log if outcome is not None]
print(f"\ninitializing the worst case {hot}:")
print(f"  measured p-bits {[r.inferred_p_bit for r in result.records]}")
print(f"  correction pulses fired at instructions {fired} "
      f"(the first was detuned by the hot electron, the retry landed)")
print(f"  nucleus 0 ground population afterwards "
      f"{result.final_state.population(0, 0):.12f}")

# Readout: the current under the tip is modulated at the local electron line,
# whose position encodes (nucleus bit, tip bit).
print("\nmodulation lines (MHz)")
for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
    print(f"  p={pair[0]} a={pair[1]}  {modulation_frequency(*pair, cfg) / 1e6:.3f}")

print("\nnoisy-trace readout at SNR 10")
for seed, pair in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
    samples = synth_trace(*pair, cfg, snr=10.0, rng=np.random.default_rng(seed))
    detected = detect_peak(samples, cfg.trace_sample_rate)
    truth = modulation_frequency(*pair, cfg) / cfg.trace_frequency_scale
    inferred = classify_frequency(detected * cfg.trace_frequency_scale, cfg)
    print(f"  true {truth:12.3f}  detected {detected:12.3f}  -> bits {inferred}"
          f"  ({'correct' if inferred == pair else 'WRONG'})")

# A clean trace pins the line to a fraction of an FFT bin.
clean = synth_trace(1, 0, cfg, snr=math.inf, rng=np.random.default_rng(0))
bin_width = cfg.trace_sample_rate / len(clean)
detected = detect_peak(clean, cfg.trace_sample_rate)
error = abs(detected - modulation_frequency(1, 0, cfg) / cfg.trace_frequency_scale)
print(f"\nclean-trace peak error {error:.4f} of a {bin_width:.1f}-wide bin")
