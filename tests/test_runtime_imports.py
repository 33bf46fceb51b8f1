"""The package runs on numpy alone: scipy is a test-only dependency, and
the CLI needs nothing beyond numpy and the standard library.

The check runs in a fresh interpreter, because the test modules themselves
import ``scipy.stats``.
"""

import os
import subprocess
import sys

import specgp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(specgp.__file__)))

PIPELINE = """
import sys
before = set(sys.modules)
import specgp.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print("foreign modules:", sorted(added - set(sys.stdlib_module_names) - {"numpy", "specgp"}))

import numpy as np
import specgp as sg

rng = np.random.default_rng(0)
X = rng.uniform(size=(60, 2))
y = np.sin(6.0 * X[:, 0]) + 0.1 * rng.normal(size=60)
cfg = sg.SpectralConfig(d=2, m=2, signal_variance=1.0, noise_variance=0.1)
part = sg.kmeans_partition(X, y, p=3, seed=0)
prior = sg.PriorSpec.for_inputs(X, cfg)
tcfg = sg.TrainConfig(
    iterations=3,
    plan=sg.GradientSamplePlan(n_partition_samples=2, n_z_samples=2),
    schedule=sg.StepSchedule(base_step=0.1, decay_power=0.51),
    elbo_every=1,
    elbo_samples=2,
)
result = sg.train(part, sg.initial_state(prior, cfg, seed=0), prior, cfg, tcfg)
assert all(rec.elbo is not None for rec in result.trace)
model = result.model(part)
pcfg = sg.PredictConfig(n_samples=4, gamma_mix=0.0, seed=0)
means, variances = sg.predict_batch(X[:5], model, pcfg)
path = sys.argv[1]
sg.save_model(path, model)
sg.load_model(path)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print("scipy modules:", loaded)
print("jsonschema loaded:", "jsonschema" in sys.modules)
"""


def test_package_pipeline_never_imports_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(tmp_path / "model.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "scipy modules: []" in proc.stdout
    assert "jsonschema loaded: False" in proc.stdout
    assert "foreign modules: []" in proc.stdout
