import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_digests():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_print_every_call_of_train_toy(capsys):
    digests = load_digests()
    assert digests.main(["--workload", "train_toy", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sha = "[0-9a-f]{64}"
    assert re.fullmatch(
        f"train_toy seed=1 task=0 train rc=0 out={sha} curve={sha} stdout=steps=5 triples=20 final_mse=.*",
        lines[0],
    )
    assert [line.split(" stdout=")[0] for line in lines[1:]] == [
        f"train_toy seed=1 scene{i:02d} pair rc=0" for i in range(3)
    ]
    assert all(re.search(r"stdout=under=ev_lo\.ppm \| over=ev_hi\.ppm$", line) for line in lines[1:])
