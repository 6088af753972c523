"""The README's library quick start, run as written."""

import json
import re
import warnings
from pathlib import Path

import numpy as np

import netgen

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "network.json").write_text(json.dumps(netgen.chain_doc(6, seed=0)))
    monkeypatch.chdir(tmp_path)
    scope = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), scope)
    # The readings come from the flat state V = 1 at L2 noise.
    V_hat = scope["V_hat"]
    assert V_hat.shape == (6,)
    assert np.max(np.abs(np.abs(V_hat) - 1.0)) < 1e-3
