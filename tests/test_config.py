import dataclasses
import inspect

import numpy as np
import pytest

from slabrecon import (
    InterleavedLayout,
    MotionScenario,
    PhantomSpec,
    RegistrationConfig,
    Volume,
    fuse,
    phantom_geometry,
    shift_index,
    simulate_acquisition,
)
from slabrecon.cli import main
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


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


def test_pipeline_defaults_are_the_owners_defaults():
    config = PipelineConfig()
    assert config.registration_config() == RegistrationConfig()
    assert config.fusion_epsilon == _default(fuse, "epsilon")
    assert config.shift_threshold == _default(shift_index, "threshold")
    assert config.foreground_fraction == _default(shift_index, "foreground_fraction")
    spec = PhantomSpec()
    assert [config.phantom_length_mm, config.phantom_height_mm,
            config.phantom_body_width_mm, config.phantom_head_width_mm] == [
        spec.length_mm, spec.height_mm, spec.body_width_mm, spec.head_width_mm]
    assert tuple(config.phantom_fov_mm) == _default(phantom_geometry, "inplane_fov_mm")
    layout = InterleavedLayout(2, slabs=2)
    geometry = phantom_geometry(layout.final_slices, inplane_fov_mm=(2.4, 2.4))
    truth = Volume(geometry, np.ones(geometry.dims))
    lr = simulate_acquisition(truth, layout, MotionScenario.identity(2)).lr
    assert lr.geometry.spacing[2] == config.lr_inplane_factor * geometry.spacing[2]


@pytest.mark.parametrize("text, lineno", [("seed 3\n", 1), ("# seed\n\nseed = 3\nbins: 32\n", 4)])
def test_config_line_without_an_equals_sign_is_usage_error(tmp_path, capsys, text, lineno):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{cfg}:{lineno}: expected 'key = value'" in err
    assert not (tmp_path / "out").exists()
