"""Paths, child-process environment and run records shared by the bench.

Everything the benchmark writes goes under the checkout: scratch state
under ``.bench_work/`` (removed when a run ends) and traces under
``.bench_out/`` unless ``--trace-dir`` says otherwise.  Both are listed
in the root ``.gitignore``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: One BLAS thread everywhere: the load must come from the workload's
#: own processes and threads, never from a library thread pool.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Shared-memory segment prefix of ``repro.runtime.shm``.
SHM_PREFIX = "repro-kernels-"


class SourceTreeMissing(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceTreeMissing(f"repro imported from {repro.__file__}, not {SRC}")


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_TESTBED_CACHE", None)
    return env


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, object]:
    """What a run's numbers depend on besides the code."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_revision(),
        "seed": int(seed),
        "blas_threads": dict(BLAS_ENV),
    }


def shm_segments() -> set:
    """Names of the program's shared-memory segments now in ``/dev/shm``."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {path.name for path in root.glob(f"{SHM_PREFIX}*")}


def processes_mentioning(text: str) -> List[int]:
    """Pids (other than this one) whose command line contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if text.encode() in cmdline:
            found.append(int(entry.name))
    return found


def vm_hwm_bytes(pid: int) -> Optional[int]:
    """Peak resident set (``VmHWM``) of a live process, in bytes."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def load_benchmark() -> Dict:
    return json.loads(BENCHMARK_FILE.read_text())


def load_expected() -> Dict:
    return json.loads(EXPECTED_FILE.read_text())


def write_json(path: Path, payload: object) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
