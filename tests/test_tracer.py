"""The benchmark's traced run wraps program entry points it finds by name.

``perfbench/tracing.py`` replaces functions, methods and properties of the
package with timing wrappers.  This test loads it by path, as the benchmark
does, and runs three commands under it, so that renaming a wrapped entry
point fails here and not only in the traced benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spencerkit import cli, fields

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_field_and_check_layers(capsys):
    originals = (cli.main, fields.d_oneform, fields.matvec, np.einsum)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = [
            cli.main(["pluri", "check", str(SCENES / "standard2d.json"),
                      "--field", "bump", "--no-meta"]),
            cli.main(["holo", "residual", str(SCENES / "standard2d.json"),
                      "--field", "z", "--no-meta"]),
            cli.main(["hyper", "check", str(SCENES / "hyper_flat.json"),
                      "--function", "identity", "--no-meta"]),
        ]
        # a scalar field counts once when it is sampled, not when read again
        counted = tracer.counts["fields.samples_materialized"]
        u = fields.ScalarField.from_expr(fields.Patch.box(1, 0.0, 1.0, 5), "x1")
        u.samples, u.samples
        scalar_count = tracer.counts["fields.samples_materialized"] - counted
    finally:
        tracer.remove()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    layers = {span[0] for span in tracer.spans}
    assert {"cli", "fields", "holomorphy", "hypercomplex"} <= layers
    # the counter reads ``ScalarField._samples`` and ``MatrixField._values``
    # before each sampling; a cache that never reads None counts nothing
    assert tracer.counts["fields.samples_materialized"] > 0
    assert scalar_count == 1
    assert (cli.main, fields.d_oneform, fields.matvec, np.einsum) == originals
