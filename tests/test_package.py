"""The package's public names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES_WITH_ALL = ("exact_core", "free_algebra", "nc_series", "frobenius", "juhl_core", "backends")


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"juhlkit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_benchmark_tracer_installs_on_the_package(tmp_path):
    # perfbench/tracing.py wraps package names (apply_R, m_apply, mat_vec,
    # apply_operator_expansion, ...) and reads NCSeries.cap and .coeffs on
    # every apply_L call: renaming or deleting one must fail here too
    root = Path(__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import tracing\n"
        "from juhlkit import cli\n"
        "tracer = tracing.Tracer(Path(sys.argv[1]))\n"
        "tracing.install(tracer)\n"
        "code = cli.main(['verify', 'combinatorial', 'backends', '--max-order', '2'])\n"
        "print(json.dumps({'code': code, 'counts': tracer.counts}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    env.pop("JUHL_MAX_ORDER", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["counts"]["backends.apply_R.calls"] > 0
    assert result["counts"]["nc_series.apply_L.calls"] > 0
