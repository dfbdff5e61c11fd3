"""Every narrative demo runs to completion and prints exactly its recorded output."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. The demos are deterministic (seeded, and
# independent of TMPDIR), so any change here is a change in behaviour.
STDOUT_SHA256 = {
    "01_utxo_network_graphs.py": "5dfec9b32b136572058708cfd0cca8e3e85fd7c80050a7b083f356b5464ae8a9",
    "02_chainlet_matrices.py": "45da3005dfd511d42f847c14e8e65ddea928423f28216b22875619007728fa66",
    "03_privacy_overlays.py": "242cc307ee1dd2329674ac19937235b036109124ff7605b2d732b8fadb7a52b8",
    "04_account_tokens_traces.py": "2670d02730f45f8a9d46f7bbfa87a8e45721beccf5856fbc5f25526c62893404",
    "05_credit_network_payments.py": "2133938888832cbe20ee43d27b255678f77c47a379b85f1e09dac51ad143470d",
    "06_tangle_lifecycle.py": "67bb7239654603ba291ecf26aaa74e24050c24050b54565eff9589b8394816b8",
    "07_synthetic_generation.py": "587d60cf17c771db82b96b77788b29e0b07f57be3cc1963387df3268a091520f",
    "08_full_pipeline.py": "907b045f9e1e5dbb76b29a5ae77c2bffb02c39d617147127f030ec11ef71c94b",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
