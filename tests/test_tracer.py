"""The benchmark's traced run wraps program entry points it finds by name.

``perfbench/tracing.py`` replaces functions, methods and properties of the
package with timing wrappers.  This test loads it by path, as the benchmark
does, and runs commands under it, so that renaming a wrapped entry
point fails here and not only in the traced benchmark.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from conftest import fresh_python
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


# Installs the tracer before anything has imported scipy, runs an LU solve and
# removes the tracer; prints what it saw as one JSON object.
_LAZY_SPLA = """
import contextlib, importlib.util, io, json, sys
from spencerkit import cli, elliptic

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
seen = {"bound before install": "spla" in vars(elliptic)}
tracer = tracing.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        seen["exit"] = cli.main(["elliptic", "solve", sys.argv[2], "--grid", "33",
                                 "--bc", "x1^2 - x2^2", "--no-meta"])
finally:
    tracer.remove()
import scipy.sparse.linalg
seen["layers"] = sorted({span[0] for span in tracer.spans})
seen["spla restored"] = elliptic.spla is scipy.sparse.linalg
print(json.dumps(seen))
"""


def test_tracer_wraps_the_solver_that_loads_at_first_use():
    # the tracer rebinds elliptic.spla; the first solve loads scipy and must
    # keep that binding, or the factor spans are silently lost
    proc = fresh_python("-c", _LAZY_SPLA, str(ROOT / "perfbench" / "tracing.py"),
                        str(SCENES / "standard2d.json"))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["bound before install"] is False
    assert seen["exit"] == 0
    assert {"elliptic.system", "elliptic.factor"} <= set(seen["layers"])
    assert seen["spla restored"] is True


def test_tracer_records_the_gmres_path(capsys):
    # 143^2 unknowns, over the direct-solver limit: the solve iterates, and
    # its V-cycle factors the coarsest level
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["elliptic", "solve", str(SCENES / "fixture_n1.json"),
                         "--grid", "145", "--bc", "1 + x1 + 0.5*x2 + x1*x2",
                         "--no-meta"])
    finally:
        tracer.remove()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["results"]["stats"]["method"] == "iterative"
    layers = {span[0] for span in tracer.spans}
    assert {"elliptic.system", "elliptic.iterate", "elliptic.factor"} <= layers
    assert tracer.counts["elliptic.iterations"] > 0
