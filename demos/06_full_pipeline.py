"""Full pipeline: one configuration in, a hashed bundle of artifacts out.

Identical configurations produce byte-identical bundles; the manifest lists
every file with its SHA-256 so reruns are verifiable.
"""

import json
from fractions import Fraction
from pathlib import Path

from cantortubes import RunConfig, run_pipeline, verify_manifest
from cantortubes.reports import EXPECTED_FAILURES, FIRST_LEVEL_C_CEILING

OUT = Path(__file__).parent / "out" / "pipeline"

config = RunConfig(
    s=Fraction(1),
    c=Fraction(1, 16),
    depth=3,
    # Demo-speed knobs; drop these four lines for criterion-scale runs.
    neighborhood_radius=Fraction(1, 64),
    raster_resolution=Fraction(1, 512),
    spacing_samples=300,
    containment_thetas=5,
)

bundle = run_pipeline(config, OUT)
manifest = json.loads((OUT / "manifest.json").read_text())

print(f"=== pipeline bundle under {OUT} ===")
for entry in manifest["files"]:
    print(f"  {entry['sha256'][:12]}  {entry['bytes']:>8}  {entry['path']}")
print(f"\nverification state: {'ok' if manifest['ok'] else 'FAILURES'}")

verify = json.loads((OUT / "verify.json").read_text())
print(f"known failures in the ledger: {sorted(EXPECTED_FAILURES)}")
print(f"  on record in this bundle: {verify['expected_failures']}; "
      f"unexpected: {verify['unexpected_failures']}")

cont = json.loads((OUT / "containment.json").read_text())
print(f"containment: minimal sufficient C per level "
      f"{cont['max_C_min_per_level']} at configured C = {cont['C']}")
print(f"  first-level misses within the known ceiling "
      f"{FIRST_LEVEL_C_CEILING}: {cont['known_first_level_shortfalls']}; "
      f"unexpected: {cont['unexpected_shortfalls']}")

bad = verify_manifest(OUT)
print(f"manifest re-hash: {'clean' if not bad else bad}")
