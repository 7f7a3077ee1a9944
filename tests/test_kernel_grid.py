"""tools/kernel_grid.py prints one JSON line of kernel costs."""

import importlib.util
import json

from conftest import SRC

_spec = importlib.util.spec_from_file_location("kernel_grid", SRC.parent / "tools" / "kernel_grid.py")
kernel_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_grid)


def test_tiny_grid_prints_one_json_line(capsys):
    grid = [(1, False, 3, 5), (1, True, 2, 1)]
    assert kernel_grid.main(grid) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    points, peaks = report["points"], report["peak_mib"]
    assert list(points) == list(peaks) == ["K = 2, R = 3, n = 5", "lazy K = 3, R = 2, n = 1"]
    assert all(isinstance(v, float) and v >= 0.0 for v in points.values())
    # a 5-step chunk over 3 replicas is a 120-byte buffer
    assert all(isinstance(v, float) and 0.0 <= v < 1.0 for v in peaks.values())

