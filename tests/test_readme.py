"""The README's Library example runs as written, and every library name
it promises exists."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_readme_library_example_runs():
    scope = {}
    exec(compile(_library_block(), f"{README}:Library", "exec"), scope)
    assert scope["D"].shape == (8, 2)
    assert scope["D_mr"].shape == scope["D_cnn"].shape == (2, 8, 15)


# the library functions the README promises beyond the example; code with
# no pipeline caller is deleted unless it is listed here
PROMISED = (
    "bessel.bessel_j_orders", "bessel.bessel_y_orders",
    "bessel.hankel2_orders", "bessel.hankel2_sym_range",
    "acoustics.herglotz_coefficients", "acoustics.herglotz_point_source",
    "renderers.mr_circular_driving", "renderers.mr_linear_driving",
    "renderers.pm_operators",
    "datasets.mr_driving_matrix", "datasets.control_pressures",
    "compensator.compensate", "fileio.ArtifactFormatError",
)


@pytest.mark.parametrize("dotted", PROMISED)
def test_readme_promised_name_resolves(dotted):
    module, name = dotted.split(".")
    assert re.search(rf"`(\w+\.)?{name}\b", README.read_text())
    assert callable(getattr(importlib.import_module(f"sfsynth.{module}"), name))
