#!/usr/bin/env python
"""Scheduled chaos drill: corrupt artifacts, assert every fault is caught.

This is the executable contract behind ``docs/robustness.md``: build a
small corpus of persisted artifacts, inject one of each fault class —

* a flipped bit inside a checksummed envelope body (bit rot),
* a truncated file (torn write),
* a legacy unchecksummed artifact (strict-mode violation),
* structural index corruption (covered by the ``fsck`` self-test, which
  injects shrunken radii, skewed parent distances, dropped entries,
  and orphan/dangling/aliased pages),

— then run the *real* CLIs (``python -m repro doctor --json`` and
``python -m repro fsck --json``) as subprocesses and assert that every
injected fault is detected and that the exit codes say so.  Exits 0 only
when all assertions hold; CI runs this on a schedule (see
``.github/workflows/chaos.yml``) and locally it is::

    python scripts/run_chaos.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=str(REPO),
    )


def build_corpus(root: Path) -> dict:
    """Write a healthy artifact corpus, then damage three of the files.

    Returns ``{path_name: expected_fault_class}`` for the damaged files.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.core import estimate_distance_histogram
    from repro.datasets import clustered_dataset
    from repro.mtree import bulk_load, vector_layout
    from repro.persistence import save_histogram, save_mtree

    data = clustered_dataset(size=150, dim=3, seed=5)
    hist = estimate_distance_histogram(
        data.points, data.metric, data.d_plus, n_bins=40
    )
    tree = bulk_load(data.points, data.metric, vector_layout(3), seed=5)
    save_histogram(hist, root / "histogram.json")
    save_mtree(tree, root / "mtree.json")
    save_mtree(tree, root / "mtree_torn.json")
    save_mtree(tree, root / "mtree_flipped.json")
    save_histogram(hist, root / "healthy.json")

    # Bit rot: flip one character inside the envelope body.  "body" is
    # serialised last (see repro.reliability.integrity), so any byte in
    # the back half of the file is body text.
    flipped = root / "mtree_flipped.json"
    text = flipped.read_text()
    pos = len(text) - len(text) // 4
    while text[pos] in '"\\{}[]':  # keep the envelope JSON parseable
        pos += 1
    old = text[pos]
    new = "1" if old != "1" else "2"
    flipped.write_text(text[:pos] + new + text[pos + 1 :])

    # Torn write: drop the tail of the file.
    torn = root / "mtree_torn.json"
    torn.write_text(torn.read_text()[: -max(64, 1)])

    # Legacy artifact: valid JSON, no envelope — only strict mode objects.
    (root / "legacy.json").write_text(json.dumps({"kind": "histogram"}))

    return {
        "mtree_flipped.json": "bit rot",
        "mtree_torn.json": "torn write",
        "legacy.json": "legacy artifact (strict)",
    }


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="metricost-chaos-") as tmp:
        root = Path(tmp)
        damaged = build_corpus(root)

        doctor = run_cli(
            "doctor", "--json", "--strict", "--artifacts", str(root)
        )
        check(doctor.returncode != 0, "doctor exits non-zero on corruption")
        try:
            payload = json.loads(doctor.stdout)
        except json.JSONDecodeError:
            print(doctor.stdout)
            print(doctor.stderr, file=sys.stderr)
            check(False, "doctor --json emits parseable JSON")
            payload = {"healthy": True, "artifacts": []}
        check(payload["healthy"] is False, "doctor reports unhealthy")
        verdicts = {
            Path(report["path"]).name: report["ok"]
            for report in payload.get("artifacts", [])
        }
        for name, fault in sorted(damaged.items()):
            check(
                verdicts.get(name) is False,
                f"doctor flags {name} ({fault})",
            )
        for name in ("histogram.json", "mtree.json", "healthy.json"):
            check(
                verdicts.get(name) is True,
                f"doctor passes undamaged {name}",
            )

        # Without --strict the legacy file is tolerated (metered, not
        # failed) while the physically damaged files still fail.
        tolerant = run_cli("doctor", "--json", "--artifacts", str(root))
        tolerant_verdicts = {
            Path(report["path"]).name: report["ok"]
            for report in json.loads(tolerant.stdout).get("artifacts", [])
        }
        check(
            tolerant_verdicts.get("legacy.json") is True,
            "non-strict doctor tolerates the legacy artifact",
        )
        check(
            tolerant_verdicts.get("mtree_flipped.json") is False,
            "non-strict doctor still flags bit rot",
        )

    fsck = run_cli("fsck", "--json", "--size", "220")
    check(fsck.returncode == 0, "fsck self-test exits zero when healthy")
    try:
        report = json.loads(fsck.stdout)
    except json.JSONDecodeError:
        print(fsck.stdout)
        print(fsck.stderr, file=sys.stderr)
        check(False, "fsck --json emits parseable JSON")
        report = {"healthy": False, "cases": []}
    check(report["healthy"] is True, "fsck self-test verdict healthy")
    cases = {case["name"]: case for case in report.get("cases", [])}
    expected_cases = (
        "mtree.shrink_radius",
        "mtree.skew_parent_distance",
        "mtree.drop_entry",
        "pages.inject_orphan_page",
        "pages.inject_dangling_ref",
        "pages.inject_page_alias",
    )
    for name in expected_cases:
        case = cases.get(name)
        check(
            case is not None and case["detected"],
            f"fsck detects {name}",
        )
        if case is not None and case.get("repaired") is not None:
            check(case["repaired"], f"fsck repair succeeds for {name}")

    print(
        f"\nchaos drill: {len(failures)} failure(s)"
        + ("" if failures else " — all injected faults detected")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
