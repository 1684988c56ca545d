"""The benchmark workloads' outputs stay byte for byte the same.

Performance work on numvar must not change a single output byte.  The
benchmark itself compares sigma2 only to within 1e-9, so this test runs
the full-size commands of every workload in perfbench/run.py in process,
at seed 0, and pins the sha256 of each command's stdout.  The digests
were recorded before the word-sorted dilation and the int32 rank rows.
A change that moves them changes what the library computes, and needs
its own justification and a new record here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of each command's stdout, in the workload's command order
_DIGESTS = {
    "variance-exact-1e6": [
        "53b0f301ec8f032bf0070ecfb1f65cf4e0a33e35441eef7d48bb2913b642a874",
    ],
    "variance-mc-mid": [
        "a5925d829105938115d40062f1873ae33ea670def0956d1b6bf042ff9aeced81",
    ],
    "spectral-paircorr": [
        "907fc055b8865f2c23ad16b6dcdb1eb870ca9c7d2e6b10a8d1c0d1a554b8fa76",
    ],
    "energy-structure": [
        "8b4d0301384a18acc55e0190567445b66f4db873822d089d53be47f2a9448237",
        "5e33ca0a267dcf16eba8d99ad75d8f84710cc58e10ab5673c2f6c35820a24f0a",
    ],
}


def _load_run():
    spec = importlib.util.spec_from_file_location("run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(_DIGESTS))
def test_workload_outputs_are_byte_identical(workload, monkeypatch, capsys):
    # run.py imports its sibling modules checks and tracing by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = _load_run()
    import numvar.cli

    assert sorted(run.WORKLOADS) == sorted(_DIGESTS)
    digests = []
    for argv in run.commands_for(workload, 0, tiny=False):
        capsys.readouterr()
        code = numvar.cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        digests.append(hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert digests == _DIGESTS[workload]
