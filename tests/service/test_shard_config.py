"""The shard refuses the asyncio service's observability fields.

Traces, the flight recorder and the SLO engine ride
:class:`~repro.service.PositioningService`'s dispatch loop; the shard
router has none of them, so a :class:`ShardConfig` whose service arms
one must fail loudly rather than serve without it.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import ServiceConfig, ShardConfig
from repro.telemetry import RecorderConfig, SloConfig

ARMED = {
    "trace": True,
    "recorder": RecorderConfig(),
    "slo": SloConfig(),
}


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("name", sorted(ARMED))
def test_refuses_each_asyncio_only_field(name, workers):
    service = ServiceConfig(**{name: ARMED[name]})
    with pytest.raises(ConfigurationError, match=f"service.{name}"):
        ShardConfig(service=service, workers=workers)


def test_accepts_a_config_without_them():
    assert ShardConfig(service=ServiceConfig(), workers=1).workers == 1
