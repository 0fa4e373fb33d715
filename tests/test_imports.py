"""What the package imports.

Every name a package module imports is used in that module: a refactor
that moves a check or a constant out of a module can leave its import
behind. The modules are parsed with ``ast``, not imported.

The package root imports nothing, so ``import edm_atlas`` loads no module
of the package and no scipy. Each module imports alone in a fresh
interpreter: with no root that imports every module first, this is what
shows an import cycle.

The analysis stages (``cluster``, ``sweep``, ``profile``, ``plot``) and
``import edm_atlas.cli`` load no scipy module at all: its imports were
about half of an analysis process's peak memory and start-up time.
``extract`` loads ``scipy.fft`` for the MFCC's DCT, and ``scipy.signal``
(with ``scipy.stats``) only when a track needs resampling.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edm_atlas.fixtures import DEFAULT_FAMILIES, FixtureFamily, write_fixture_set
from edm_atlas.table import FeatureMatrix, save_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edm_atlas"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def loaded_after(statement: str) -> list[str]:
    """The edm_atlas and scipy modules a fresh interpreter holds after running ``statement``."""
    script = f"""{statement}
import sys
print(*sorted(m for m in sys.modules if m.partition(".")[0] in ("edm_atlas", "scipy")))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_package_root_loads_no_module():
    assert loaded_after("import edm_atlas") == ["edm_atlas"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_each_module_imports_alone(path):
    assert f"edm_atlas.{path.stem}" in loaded_after(f"import edm_atlas.{path.stem}")


# Run in a fresh interpreter, so that what the test process has imported
# does not count; the analysis stages run before any extraction. argv: the
# 22050 Hz catalog's manifest, the generated matrix's manifest, the 44.1 kHz
# track's manifest, and a work directory.
STAGES_SCRIPT = """
import sys
from pathlib import Path

catalog, matrix, resampled, work = sys.argv[1:]


def loaded(step):
    print("loaded", step, *sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"), sep="|")


import edm_atlas

loaded("import edm_atlas")
from edm_atlas.cli import main

loaded("import edm_atlas.cli")
for stage, extra in [
    ("cluster", ["--k", "3", "--method", "both", "--restarts", "3"]),
    ("sweep", ["--k-min", "2", "--k-max", "4", "--restarts", "3"]),
    ("profile", []),
    ("plot", []),
]:
    argv = [stage, "--manifest", matrix, "--out", str(Path(matrix).parent), "--workers", "1", *extra]
    assert main(argv) == 0, stage
    loaded(stage)
assert main(["extract", "--manifest", catalog, "--out", work + "/catalog", "--workers", "1"]) == 0
loaded("extract")
assert main(["extract", "--manifest", resampled, "--out", work + "/resampled", "--workers", "1"]) == 0
loaded("extract 44100 Hz")
"""


def generated_matrix(root: Path) -> Path:
    """24 tracks of 4 genres over 30 columns of five audio groups; returns the manifest."""
    rng = np.random.default_rng(0)
    groups = [g for g in ("spectral", "timbral", "harmonic", "rhythmic", "tempogram") for _ in range(6)]
    names = [f"{g}_{i % 6}_mean" for i, g in enumerate(groups)]
    genres = [f"genre_{g}" for g in range(4) for _ in range(6)]
    row_ids = [f"t{i:02d}" for i in range(len(genres))]
    centers = np.repeat(rng.normal(0.0, 3.0, (4, len(names))), 6, axis=0)
    data = centers + rng.normal(0.0, 1.0, centers.shape)
    root.mkdir()
    save_matrix(FeatureMatrix(row_ids, names, groups, data), root / "features.csv")
    rows = ["track_id,path,genre,bpm,key,length_s", *(f"{t},{t}.wav,{g},,," for t, g in zip(row_ids, genres))]
    (root / "manifest.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return root / "manifest.csv"


def test_stages_skip_signal_and_stats(tmp_path):
    families = tuple(FixtureFamily(f.genre, f.kind, f.bpm, 1) for f in DEFAULT_FAMILIES[:2])
    catalog = write_fixture_set(tmp_path / "catalog", families=families, duration=10.0, seed=0)
    resampled = write_fixture_set(
        tmp_path / "resampled", families=families[:1], duration=10.0, seed=0, rate=44100
    )
    matrix = generated_matrix(tmp_path / "matrix")
    args = [str(catalog), str(matrix), str(resampled), str(tmp_path / "work")]
    done = subprocess.run(
        [sys.executable, "-c", STAGES_SCRIPT, *args], capture_output=True, text=True, env=fresh_env(), timeout=600
    )
    assert done.returncode == 0, done.stderr
    loaded = {}
    for line in done.stdout.splitlines():
        if line.startswith("loaded|"):
            step, *names = line.split("|")[1:]
            loaded[step] = names
    extract, resampling = loaded.pop("extract"), loaded.pop("extract 44100 Hz")
    steps = ["import edm_atlas", "import edm_atlas.cli", "cluster", "sweep", "profile", "plot"]
    assert loaded == {step: [] for step in steps}
    assert "scipy.fft" in extract  # the MFCC's DCT
    assert not [name for name in extract if name.startswith(("scipy.spatial", "scipy.signal", "scipy.stats"))]
    assert "scipy.signal" in resampling  # the deferred import runs once a track needs it
