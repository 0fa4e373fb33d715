"""The whole pipeline, as the CLI drives it: fixtures -> extract -> cluster
-> sweep -> profile -> plot, with every output landing in one directory.

Equivalent shell session:

    edm-atlas fixtures --out demo_out/audio --tracks-per-genre 5
    edm-atlas extract  --manifest demo_out/audio/manifest.csv --out demo_out/run
    edm-atlas cluster  --manifest demo_out/audio/manifest.csv --out demo_out/run --k 4 --method both
    edm-atlas sweep    --manifest demo_out/audio/manifest.csv --out demo_out/run --k-min 2 --k-max 10
    edm-atlas profile  --manifest demo_out/audio/manifest.csv --out demo_out/run
    edm-atlas plot     --manifest demo_out/audio/manifest.csv --out demo_out/run

Without ``out_dir`` the demo works in a temporary directory, removed when
it ends. Run:

    python3 demos/04_full_pipeline.py [out_dir]
"""

import sys
import tempfile
from pathlib import Path

from edm_atlas.cli import main


def demo(out: Path) -> None:
    audio = out / "audio"
    run = out / "run"
    manifest = str(audio / "manifest.csv")

    steps = [
        ["fixtures", "--out", str(audio), "--tracks-per-genre", "5", "--seed", "0"],
        ["extract", "--manifest", manifest, "--out", str(run), "--seed", "7"],
        ["cluster", "--manifest", manifest, "--out", str(run), "--seed", "7", "--k", "4", "--method", "both"],
        ["sweep", "--manifest", manifest, "--out", str(run), "--seed", "7", "--k-min", "2", "--k-max", "10"],
        ["profile", "--manifest", manifest, "--out", str(run), "--seed", "7"],
        ["plot", "--manifest", manifest, "--out", str(run), "--seed", "7"],
    ]
    for argv in steps:
        print(f"\n$ edm-atlas {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(f"step failed with exit code {code}")

    print(f"\nartifacts in {run}:")
    for path in sorted(run.iterdir()):
        print(f"  {path.name:28s} {path.stat().st_size:8d} bytes")


if len(sys.argv) > 1:
    demo(Path(sys.argv[1]))
else:
    with tempfile.TemporaryDirectory(prefix="edm_atlas_") as tmp:
        demo(Path(tmp))
