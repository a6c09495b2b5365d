"""Import budget: what a fresh interpreter loads for each kind of use.

`import pflight` must load numpy and pflight's own modules and nothing
heavier. scipy serves only the exact-law analytics (quadrature and the
Bessel tail) and is imported on their first call; the process pool is
imported only by a Monte Carlo run with more than one worker.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pflight
from pflight.cli import main

PACKAGE_ROOT = str(Path(pflight.__file__).resolve().parents[1])


def run_fresh(body: str, cwd: Path, **env_extra: str) -> dict:
    """Run ``body`` in a fresh interpreter; return its loaded-module flags and ``result``."""
    script = textwrap.dedent(body) + textwrap.dedent("""
        import json, sys
        print(json.dumps({
            "scipy": "scipy" in sys.modules,
            "scipy.integrate": "scipy.integrate" in sys.modules,
            "pool": "concurrent.futures.process" in sys.modules,
            "result": globals().get("result"),
        }))
    """)
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_scipy_nor_the_pool(tmp_path):
    loaded = run_fresh("import pflight, pflight.cli\n", tmp_path)
    assert not loaded["scipy"]
    assert not loaded["pool"]


def test_simulate_estimate_and_one_worker_mc_load_no_scipy(tmp_path):
    config = {"lambda_grid": [1.0], "n_grid": [10], "T": 10.0, "reps": 4, "master_seed": 3}
    (tmp_path / "config.json").write_text(json.dumps(config))
    loaded = run_fresh("""
        from pflight.cli import main
        result = [
            main(["simulate", "--lambda", "1.0", "--c", "1.0", "--T", "10.0", "--n", "20",
                  "--seed", "5", "--out", "sample.csv"]),
            main(["estimate", "--in", "sample.csv", "--c", "1.0", "--out", "est.csv"]),
            main(["mc", "--config", "config.json", "--out", "summary.csv"]),
        ]
    """, tmp_path, PFL_THREADS="1")
    assert loaded["result"] == [0, 0, 0]
    assert (tmp_path / "est.csv").read_text().startswith("kind,")
    assert (tmp_path / "summary.csv").read_text().startswith("lambda,")
    assert not loaded["scipy"]
    assert not loaded["pool"]


def test_off_origin_density_loads_scipy_on_first_use(tmp_path, capsys):
    argv = ["density", "--lambda", "1.0", "--c", "1.0", "--t", "1.0", "--x0", "0.5",
            "--r-min", "0.1", "--r-max", "1.2", "--points", "7"]
    loaded = run_fresh(f"""
        from pflight.cli import main
        result = main({argv + ["--out", "density.csv"]!r})
    """, tmp_path)
    assert loaded["result"] == 0
    assert loaded["scipy.integrate"]
    assert main(argv) == 0
    assert (tmp_path / "density.csv").read_text() == capsys.readouterr().out


def test_scipy_functions_are_bound_once(tmp_path):
    # After its first call each stand-in is replaced by scipy's own
    # function, so no later call pays for an import.
    loaded = run_fresh("""
        import scipy.integrate, scipy.special
        from pflight import analytics
        from pflight.simulate import FlightParams
        analytics.bessel_i_scaled(0.0, 40.0)
        analytics.moment_quadrature(FlightParams(rate=1.0, speed=1.0), 1.0, 2)
        result = [analytics._scipy_ive is scipy.special.ive,
                  analytics._scipy_quad is scipy.integrate.quad]
    """, tmp_path)
    assert loaded["result"] == [True, True]
