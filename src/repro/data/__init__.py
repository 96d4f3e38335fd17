"""Dataset generators and IO for the experiments of Section VII."""

from repro.data.base import DatasetGenerator
from repro.data.ideal import IdealStreamGenerator
from repro.data.loader import read_jsonl, write_jsonl
from repro.data.nobench import NoBenchGenerator
from repro.data.serverlogs import ServerLogGenerator
from repro.data.stream import (
    TimestampedDocument,
    arrival_rate_from_daily_volume,
    timestamped_stream,
    windows_by_time,
)
from repro.data.zoo import (
    ZOO_WORKLOADS,
    FlashCrowdGenerator,
    LateArrivalGenerator,
    SchemaDriftGenerator,
    ZipfSkewGenerator,
    make_zoo_generator,
)

__all__ = [
    "DatasetGenerator",
    "FlashCrowdGenerator",
    "IdealStreamGenerator",
    "LateArrivalGenerator",
    "NoBenchGenerator",
    "SchemaDriftGenerator",
    "ServerLogGenerator",
    "TimestampedDocument",
    "ZOO_WORKLOADS",
    "ZipfSkewGenerator",
    "make_zoo_generator",
    "arrival_rate_from_daily_volume",
    "timestamped_stream",
    "windows_by_time",
    "read_jsonl",
    "write_jsonl",
]
