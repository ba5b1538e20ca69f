"""Every report of the ``scripts/report_digests.py`` corpus, pinned bit for bit, and portably.

A change that moves any reported number, even in the last bit, fails here.
The digests were taken with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas,
x86-64); another BLAS may move low-rank statistics in the last bits.  To see
the current digests, run ``PYTHONPATH=src python3 scripts/report_digests.py``.

Beside that bitwise check, the corpus is run again in child processes on the
other numpy and OpenBLAS kernels this host can switch to.  There only the
statistics may move, by less than their roundoff bound, and every other
reported field (p-values, rejections, bandwidths, counts, p-value lists,
counterexamples) must be identical.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "report_digests.py"
EPS = float(np.finfo(float).eps)

_spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)
openblas_core, host_facts = script.openblas_core, script.host_facts

# One digest per corpus command, in corpus order.
EXPECTED = [
    "32f2e3d25e9f28766ed76e5ef1b38a4fe0905cd6c787a8159b1b0f293df2eba8",  # test ring_8 y gaussian:median
    "1a44309da3fa576cbb8031cfc99097cbda60145c97b565931f7d1111ea4d7a2a",  # test ring_8 y linear
    "ade37b84da9dcae34d443ec30d88113ee156e79639437b6b55057da448c12f74",  # test ring_8 y laplace:median
    "f84b1c8c96fbd70eb7df06dbaa0ce7dfa486fb985276fa897de0cd42d69493a4",  # test ring_39 y gaussian:median
    "7d77904d9413cfacf0cb501756899f89b9a7c4097086e96705966713f935f1f4",  # test ring_39 y linear
    "aa4ce27ce31e31d6fc22b26900ad220e505c9f658e68a3c02e2ab7b5f1ce285d",  # test ring_39 y laplace:median
    "73a9231eaafe4cb87e3eca8c0f6a5dd5427fa5ba86c7a4464dd70d2f68464e96",  # test ring_40 y gaussian:median
    "7804bf030c415102f8adfb47c959b5078c266ed3a56483c718494468a31c2935",  # test ring_40 y linear
    "07d8767da26c5b09ce0636f869a6b5e263662637b1da37536a3bf2b2aea9e297",  # test ring_40 y laplace:median
    "47b859a320b01eb7c2d7495f95c80edd639a46fb670da90462a7af552c3c2bca",  # test ring_200 y gaussian:median
    "f7227c04266f8156d893f37cee905c034b512509004ed60caa5bdecc2e3f3feb",  # test ring_200 y linear
    "a644630eb74fbad7ac6b520016aa0130c611f4f81e19f33412dbf9be83a29f4e",  # test ring_200 y laplace:median
    "e97789eda6db53a9a289280135e8235832bf7b1f40be69629e88089b4852bc0b",  # test ring_1000 y gaussian:median
    "fa94391a302b57fa26c235002397773d674933a35091d069a3a3d98e524ff4e5",  # test ring_1000 y linear
    "b7f8cc5aab1e3b6054f8aad6b13b4cf426d08f57b73993d9a66538932c0e9d28",  # test ring_1000 y laplace:median
    "2021b91567c104cdae878e00cfdf9db37c22ceebb4aaab3326aeb8fda5a6f298",  # reproduce-ring n=8
    "64274b583fd885b7d2031a4fb1da523c1e80fa6ff31417d068df091045dbf4d2",  # reproduce-ring n=39
    "15c81290a06b8be17539274518424656ca4d811cfc0fd3f40761a7906ff91ad4",  # reproduce-ring n=45
    "3a7a9172a5463a5977cee432792214cd3a63aae61a1494d63fb2d176c656c7be",  # reproduce-ring n=200 noise 0.1
    "f982955f69a033f6daaf9b4075072d42b4e0336373dedc496da689ed96e6b36c",  # oracle-sweep y gaussian:median
    "1803cf1abb22bb59c1ae803f30eefae42dd2fddf56adfd9bcae408e339cf496d",  # oracle-sweep y linear centered
]

# The host facts (``host_facts``) the digests above were taken with.
PINNED_HOST = {
    "numpy": "2.4.6",
    "numpy X86_V4 dispatch": True,
    "OpenBLAS build": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
    "OpenBLAS core": "SkylakeX",
}

# The other kernels this host can run: OpenBLAS's Haswell kernels, and
# numpy's loops without AVX-512.  Each variable is set in a child only.
HOST_VARIANTS = {
    "openblas_haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy_avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}

# The reported numbers that rounding may move.  Each is within 2 n eps of
# max(|statistic_raw|, |null_quantile|): a statistic within the ``n * eps *
# scale`` of each side (``hsictest.hsic`` docstring), and every replicate, so
# the quantile, likewise.
ROUNDED = {"statistic", "statistic_raw", "null_quantile"}


def _child(args: list[str], variables: dict) -> str:
    """The stdout of ``python *args`` in a child with ``variables`` set, importing ``src``."""
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def host_reports(tmp_path_factory):
    """The corpus reports on this host's kernels, in corpus order."""
    return [script.report(argv) for argv in script.corpus(tmp_path_factory.mktemp("corpus"))]


@pytest.mark.parametrize("variables", HOST_VARIANTS.values(), ids=HOST_VARIANTS)
def test_corpus_reports_hold_on_other_kernels(variables, host_reports):
    lines = _child([str(SCRIPT), "--reports"], variables).splitlines()
    assert len(lines) == len(host_reports)
    for here, there in zip(host_reports, map(json.loads, lines)):
        here = dict(here)
        scale = max(abs(here.get("statistic_raw", 0.0)), abs(here.get("null_quantile", 0.0)))
        bound = 2 * here.get("n", 0) * EPS * scale
        for key in ROUNDED & here.keys():
            assert abs(there.pop(key) - here.pop(key)) <= bound, (key, here)
        assert there == here


def test_host_facts_read_the_openblas_core_at_run_time():
    # OPENBLAS_CORETYPE picks the core in a child; where numpy's OpenBLAS
    # does not say which core it runs, both read None.
    child = _child(
        ["-c", "from test_report_digests import openblas_core; print(openblas_core())"],
        HOST_VARIANTS["openblas_haswell"],
    )
    assert child.strip() == ("None" if openblas_core() is None else "Haswell")


def test_every_corpus_report_is_bitwise_unchanged(tmp_path):
    commands = script.corpus(tmp_path)
    assert len(commands) == len(EXPECTED)
    changed = [
        " ".join(argv)
        for argv, expected in zip(commands, EXPECTED)
        if script.digest(argv) != expected
    ]
    assert not changed, (
        f"reports changed: {changed}\n"
        f"digests pinned on: {PINNED_HOST}\n"
        f"this host:         {host_facts()}"
    )
