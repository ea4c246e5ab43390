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


def walk(instructions, layout, cfg, tip):
    """(duration, category) of each instruction in order, the tip starting at ``tip``."""
    walked = []
    for instruction in instructions:
        walked.append(
            (instruction_duration(instruction, layout, cfg, tip), duration_category(instruction))
        )
        if isinstance(instruction, MoveTip):
            tip = instruction.target
    return walked


def summarize(walked, gate_count, cfg):
    """TimingReport of (duration, category) pairs in program order.

    The total and every category total are plain left-to-right sums, so two
    routes that list the same pairs in the same order give the same report,
    bit for bit.
    """
    categories = dict.fromkeys(
        ("tip_motion", "nuclear_pulses", "electron_pulses", "measurement"), 0.0
    )
    total = 0.0
    for duration, category in walked:
        categories[category] += duration
        total += duration
    if gate_count and total > 0:
        capacity = decoherence_budget(cfg, total / gate_count)
    else:
        capacity = None
    return TimingReport(
        per_instruction=tuple(duration for duration, _ in walked),
        category_totals=categories,
        total_wall_time=total,
        gate_capacity=capacity,
        feasible=total <= cfg.coherence_time,
    )


def analyze_program(program, layout, cfg):
    """Static TimingReport of a program, walked from the layout's tip position.

    The reference route: it times any program, instruction by instruction.
    A circuit's tasks already hold their durations, so ``compiler`` sums a
    task list's report from them (``compiler.serial_timing``), and tests hold
    the two routes equal bit for bit.
    """
    walked = walk(program.instructions, layout, cfg, layout.tip_position)
    return summarize(walked, program.gate_count, cfg)


def decoherence_budget(cfg, mean_gate_time):
    """How many gates of this mean duration fit inside the coherence time (a finite count)."""
    if not mean_gate_time > 0:
        raise ValueError(f"mean gate time must be positive, got {mean_gate_time!r}")
    ratio = cfg.coherence_time / mean_gate_time
    if not math.isfinite(ratio):
        raise ConfigError(f"coherence_time over a {mean_gate_time:g} s gate is not a finite count")
    return math.floor(ratio)
