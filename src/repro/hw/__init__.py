"""``repro.hw`` — the first-class hardware model.

Promotes the paper's ``(n_rus, reconfig_latency)`` scalar pair into a
composable :class:`DeviceModel`: heterogeneous RU slots with capacity
classes, pluggable per-configuration latency models and a pool of
parallel reconfiguration controllers.  See ``docs/device-model.md``.
"""

from repro.hw.latency import (
    DEFAULT_BITSTREAM_KB,
    BitstreamLatency,
    FixedLatency,
    LatencyModel,
    PerConfigLatency,
    parse_latency_model,
)
from repro.hw.model import (
    PAPER_DEVICE_MODEL,
    DeviceModel,
    RUSlot,
)
from repro.hw.presets import (
    available_device_presets,
    device_preset,
    make_device,
)

__all__ = [
    "DEFAULT_BITSTREAM_KB",
    "BitstreamLatency",
    "DeviceModel",
    "FixedLatency",
    "LatencyModel",
    "PAPER_DEVICE_MODEL",
    "PerConfigLatency",
    "RUSlot",
    "available_device_presets",
    "device_preset",
    "make_device",
    "parse_latency_model",
]
