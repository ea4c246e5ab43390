"""Wall-clock accounting for pulse programs and the decoherence budget."""

import dataclasses
import math

from .engine import Channel
from .errors import ConfigError
from .program import ApplyPulse, ConditionalPulse, MeasureViaCurrent, MoveTip


def move_duration(layout, cfg, origin, destination):
    """Tip travel time between two positions (qubit index or parked)."""
    return layout.hop_distance(origin, destination) * cfg.tip_move_time


def instruction_duration(instruction, layout, cfg, tip_position):
    """Wall time of one instruction with the tip currently at ``tip_position``.

    Conditional pulses are charged whether or not they end up firing: the
    controller reserves the slot, which keeps static analysis and execution
    in exact agreement.
    """
    if isinstance(instruction, MoveTip):
        return move_duration(layout, cfg, tip_position, instruction.target)
    if isinstance(instruction, (ApplyPulse, ConditionalPulse)):
        return instruction.pulse.duration
    if isinstance(instruction, MeasureViaCurrent):
        return cfg.measurement_dwell_time
    raise TypeError(f"not an instruction: {instruction!r}")


def duration_category(instruction):
    """Accounting bucket an instruction's time goes into."""
    if isinstance(instruction, MoveTip):
        return "tip_motion"
    if isinstance(instruction, (ApplyPulse, ConditionalPulse)):
        if instruction.pulse.channel is Channel.ELECTRON_RF:
            return "electron_pulses"
        return "nuclear_pulses"
    if isinstance(instruction, MeasureViaCurrent):
        return "measurement"
    raise TypeError(f"not an instruction: {instruction!r}")


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


def analyze_program(program, layout, cfg):
    """Static TimingReport for a program starting from the layout's tip position.

    The only walk of instruction durations: execution and scheduling take
    their times from here. The total is the plain left-to-right sum.
    """
    tip = layout.tip_position
    durations = []
    categories = {
        "tip_motion": 0.0,
        "nuclear_pulses": 0.0,
        "electron_pulses": 0.0,
        "measurement": 0.0,
    }
    total = 0.0
    for instruction in program.instructions:
        duration = instruction_duration(instruction, layout, cfg, tip)
        durations.append(duration)
        categories[duration_category(instruction)] += duration
        total += duration
        if isinstance(instruction, MoveTip):
            tip = instruction.target
    if program.gate_count and total > 0:
        capacity = decoherence_budget(cfg, total / program.gate_count)
    else:
        capacity = None
    return TimingReport(
        per_instruction=tuple(durations),
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
