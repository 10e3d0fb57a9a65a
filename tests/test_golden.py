"""Golden outputs: the SHA-256 of the CSV of five small runs, one per kind.

A change that keeps every number must keep these hashes.  A change that
moves numbers on purpose updates the hash it moves and says why.
"""

import hashlib

import pytest

from lsd.cli import main

_HEAD = """
[experiment]
kind = {kind}
model = cir
name = golden

[params]
k1 = {k1}
k2 = 2
k3 = {k3}

[run]
x0 = 4
T = 1
seed = 5
"""

# name: (kind, k1, k3, run lines)
CONFIGS = {
    "convergence": ("convergence", 2, 1,
                    "schemes = lsd1, lsd3\nreference = lsd2\n"
                    "dt = 0.125, 0.0625, 0.03125\nref_step = 0.00390625\nM = 64\n"),
    "exact-cir": ("exact-cir", 2, 2,
                  "schemes = lsd1, lsd3\ndt = 0.03125, 0.015625, 0.0078125\n"
                  "M = 64\nm = 0.25\n"),
    "scan": ("scan", 1, 20,
             "schemes = lsd1, lsd2, lsd3, sd_theta, alf, ns\n"
             "dt = 0.01, 0.001\nM = 32\n"),
    "simulate": ("simulate", 2, 2,
                 "schemes = lsd1, alf, exact_ou, ns\ndt = 0.02, 0.01\n"),
    "compare": ("compare", 2, 1,
                "schemes = lsd1, lsd2, sd_theta\ndt = 0.02, 0.01\n"),
}

SHA256 = {
    "convergence":
        "a77aabdeb092074c50ac6cd1810035a7f12977a08a5cdeeb7542ec2b8b0487f6",
    "exact-cir":
        "e3b5c571ed82fe61f3c8f03debda55467c4c8eddb195c3ea29cfac4edbf1a28b",
    "scan": "2e5e0c1619afff859d9749a7e80a53e03717a8117853b975e45daf12abbdf35b",
    "simulate":
        "9633f9f1fb3678b38ce4ef9c17b83b89f3a40bd2269de21ad68a99f5aa83e037",
    "compare":
        "b2114fe3eacc73315396a440ef1d915c57b30fe64092853b90450b0228975c82",
}


def config_text(name):
    kind, k1, k3, run = CONFIGS[name]
    return _HEAD.format(kind=kind, k1=k1, k3=k3) + run


def csv_sha256(name, tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_text(name))
    assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
    return hashlib.sha256((tmp_path / "o" / "golden.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_csv_is_byte_identical(name, tmp_path):
    assert csv_sha256(name, tmp_path) == SHA256[name]
