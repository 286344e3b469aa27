"""The README's Library example runs as written, and every library name
it promises or mentions exists."""

import importlib
import inspect
import json
import pkgutil
import re
import struct
from pathlib import Path

import pytest

import sfsynth

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


def test_readme_dotted_names_resolve():
    # every backticked `module.name` of an sfsynth module and `Class.attr`
    # of a class the package exports names something that exists
    modules = {info.name for info in pkgutil.iter_modules(sfsynth.__path__)}
    checked, missing = [], []
    for first, second in sorted(set(re.findall(r"`(\w+)\.(\w+)",
                                               README.read_text()))):
        if first in modules:
            owner = importlib.import_module(f"sfsynth.{first}")
        elif inspect.isclass(getattr(sfsynth, first, None)):
            owner = getattr(sfsynth, first)
        else:
            continue
        checked.append(f"{first}.{second}")
        if not hasattr(owner, second):
            missing.append(checked[-1])
    assert checked
    assert missing == []


def test_readme_names_every_checkpoint_header_key(tmp_path):
    from sfsynth.fileio import save_checkpoint
    from sfsynth.network import init_params
    section = README.read_text().split("\n## File formats\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    path = tmp_path / "m.sfsm"
    save_checkpoint(path, init_params(16, 15, seed=0, channels=(1,) * 7))
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    keys = set(header) | {key for layer in header["layers"] for key in layer}
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


def test_readme_names_every_dataset_record_field():
    from sfsynth.datasets import record_dtype
    section = README.read_text().split("\n`SFSX` (dataset", 1)[1]
    section = section.split("\n## ", 1)[0]

    def names(dtype, prefix=""):
        for name in dtype.names:
            if dtype[name].names:
                yield from names(dtype[name], f"{prefix}{name}.")
            else:
                yield prefix + name

    fields = list(names(record_dtype(2, 3, 4)))
    assert "source.position" in fields
    assert [name for name in fields if f"| `{name}` |" not in section] == []
