"""Walkthrough: the command-line pipeline, file formats, and exit codes.

Drives the ``psdperm`` CLI (as ``python -m psdperm``, so the package only
needs to be importable) through a generate -> bound -> certify ->
estimate cycle in a temporary directory, printing the exact commands so
they can be replayed by hand.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def sh(*argv: str) -> subprocess.CompletedProcess:
    """Run ``psdperm ARGV...`` with the current interpreter."""
    print(f"$ psdperm {' '.join(argv)}")
    proc = subprocess.run([sys.executable, "-m", "psdperm", *argv],
                          capture_output=True, text=True)
    print(f"  -> exit {proc.returncode}")
    return proc


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inst = str(Path(tmp) / "instance.json")
        report = str(Path(tmp) / "report.json")

        sh("gen", "--n", "8", "--d", "3", "--seed", "4", "--out", inst)
        data = json.loads(Path(inst).read_text())
        print(f"  instance file: n={data['n']}, metadata={data['metadata']}")

        proc = sh("bound", inst)
        rep = json.loads(proc.stdout)
        print(f"  certified interval: [{rep['log_lower']:.4f}, {rep['log_upper']:.4f}]")

        sh("certify", inst, "--mc-samples", "200000", "--out", report)
        rep = json.loads(Path(report).read_text())
        print(f"  exact log per = {rep['log_per_exact']:.4f}, "
              f"sandwich_ok = {rep['sandwich_ok']}, "
              f"mc = {rep['mc_mean']:.4f} +/- {rep['mc_std_error']:.4f}")

        proc = sh("estimate", inst, "--mc-samples", "100000", "--seed", "2")
        rep = json.loads(proc.stdout)
        print(f"  estimate only: {rep['mc_mean']:.4f} +/- {rep['mc_std_error']:.4f}")

        # exit-code tour: invalid input (2) and the size guard (4)
        bad = str(Path(tmp) / "bad.json")
        Path(bad).write_text("{broken")
        proc = sh("bound", bad)
        assert proc.returncode == 2

        big = str(Path(tmp) / "big.json")
        sh("gen", "--n", "23", "--d", "23", "--ensemble", "diagonal",
           "--out", big)
        proc = sh("certify", big)
        assert proc.returncode == 4

        proc = sh("selfcheck")
        checks = json.loads(proc.stdout)
        print(f"  selfcheck: ok={checks['ok']} over {len(checks['checks'])} checks")


if __name__ == "__main__":
    sys.exit(main())
