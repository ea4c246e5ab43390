"""Wall-clock accounting for pulse programs and the decoherence budget."""

import dataclasses
import functools
import math

from .engine import Channel
from .errors import ConfigError
from .program import ApplyPulse, ConditionalPulse, MeasureViaCurrent, MoveTip
from .register import RegisterLayout


def move_duration(layout, cfg, origin, destination):
    """Tip travel time between two positions (qubit index or parked)."""
    return layout.hop_distance(origin, destination) * cfg.tip_move_time


@functools.lru_cache(maxsize=8)
def move_table(num_qubits, coordinates, cfg):
    """``move_duration(origin, destination)`` of one register geometry and config, memoised.

    Each pair is computed once, when first asked for, and read after that;
    the tables of the last few geometries are kept.
    """
    layout = RegisterLayout(num_qubits, coordinates)
    return functools.cache(lambda origin, target: move_duration(layout, cfg, origin, target))


@dataclasses.dataclass(frozen=True)
class TimingReport:
    """Per-instruction durations, category totals, and feasibility verdict."""

    per_instruction: tuple
    category_totals: dict
    total_wall_time: float
    gate_capacity: "int | None"
    feasible: bool

    def to_dict(self):
        return {
            "per_instruction_s": list(self.per_instruction),
            "category_totals_s": dict(self.category_totals),
            "total_wall_time_s": self.total_wall_time,
            "gate_capacity": self.gate_capacity,
            "feasible": self.feasible,
        }


def walk(instructions, layout, cfg, tip):
    """(duration, category) of each instruction in order, the tip starting at ``tip``.

    The one place an instruction is priced. Tip moves are read from
    ``move_table``. Conditional pulses are charged whether or not they end up
    firing: the controller reserves the slot, which keeps static analysis and
    execution in exact agreement.
    """
    moves = move_table(layout.num_qubits, layout.coordinates, cfg)
    walked = []
    for instruction in instructions:
        if isinstance(instruction, MoveTip):
            walked.append((moves(tip, instruction.target), "tip_motion"))
            tip = instruction.target
        elif isinstance(instruction, (ApplyPulse, ConditionalPulse)):
            pulse = instruction.pulse
            if pulse.channel is Channel.ELECTRON_RF:
                walked.append((pulse.duration, "electron_pulses"))
            else:
                walked.append((pulse.duration, "nuclear_pulses"))
        elif isinstance(instruction, MeasureViaCurrent):
            walked.append((cfg.measurement_dwell_time, "measurement"))
        else:
            raise TypeError(f"not an instruction: {instruction!r}")
    return walked


def analyze_program(program, layout, cfg):
    """Static TimingReport of a program, walked from the layout's tip position.

    The total and every category total are plain left-to-right sums of the
    walk's durations.
    """
    categories = dict.fromkeys(
        ("tip_motion", "nuclear_pulses", "electron_pulses", "measurement"), 0.0
    )
    total = 0.0
    walked = walk(program.instructions, layout, cfg, layout.tip_position)
    for duration, category in walked:
        categories[category] += duration
        total += duration
    if program.gate_count and total > 0:
        capacity = decoherence_budget(cfg, total / program.gate_count)
    else:
        capacity = None
    return TimingReport(
        per_instruction=tuple(duration for duration, _ in walked),
        category_totals=categories,
        total_wall_time=total,
        gate_capacity=capacity,
        feasible=total <= cfg.coherence_time,
    )


def decoherence_budget(cfg, mean_gate_time):
    """How many gates of this mean duration fit inside the coherence time (a finite count)."""
    if not mean_gate_time > 0:
        raise ValueError(f"mean gate time must be positive, got {mean_gate_time!r}")
    ratio = cfg.coherence_time / mean_gate_time
    if not math.isfinite(ratio):
        raise ConfigError(f"coherence_time over a {mean_gate_time:g} s gate is not a finite count")
    return math.floor(ratio)
