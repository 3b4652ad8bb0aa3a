"""Record the reference bundle hashes and the environment they came from.

    python3 perfbench/record_reference.py

Runs both pipeline workloads at seeds 0 and 1 and writes
`reference_hashes.json` (per-file sha256 of each bundle) and
`environment.json` next to this file.  `pipeline.files_identical` compares
later bundles against these; rerun only to move the reference on purpose.
"""

import json
import shutil
import sys

from run import ROOT, HERE, environment, import_package

SEEDS = (0, 1)


def main() -> int:
    import checks
    import workloads

    import_package()
    from cantortubes import pipeline

    refs = {}
    out_root = ROOT / ".perfbench_out" / "reference"
    try:
        for wl in workloads.WORKLOADS.values():
            if not isinstance(wl, workloads.PipelineWorkload):
                continue
            for seed in SEEDS:
                out_dir = out_root / f"{wl.name}-{seed}"
                state = wl.setup(seed, out_root)
                pipeline.run_pipeline(state["config"], out_dir)
                problems = checks.check_bundle(out_dir, wl.frozen_area)
                if problems:
                    sys.exit(f"{wl.name} seed {seed}: {problems}")
                refs.setdefault(wl.name, {})[str(seed)] = \
                    checks.bundle_hashes(out_dir)
    finally:
        shutil.rmtree(ROOT / ".perfbench_out", ignore_errors=True)
    (HERE / "reference_hashes.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")
    (HERE / "environment.json").write_text(
        json.dumps(environment(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
