import dataclasses

from slabrecon import RegistrationConfig
from slabrecon.config import PipelineConfig


def test_registration_config_passes_every_field_through():
    overrides = {
        "bins": 32,
        "pyramid": [3, 1],
        "max_iterations": 7,
        "step_halvings": 2,
    }
    assert set(overrides) == {f.name for f in dataclasses.fields(RegistrationConfig)}
    defaults = RegistrationConfig()
    assert all(getattr(defaults, k) != (tuple(v) if isinstance(v, list) else v)
               for k, v in overrides.items())
    reg = PipelineConfig(**overrides).registration_config()
    assert reg == RegistrationConfig(**{**overrides, "pyramid": (3, 1)})
