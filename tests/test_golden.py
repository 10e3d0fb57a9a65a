"""Golden outputs: the SHA-256 of the CSV of small runs, every kind and model.

A change that keeps every number must keep these hashes.  A change that
moves numbers on purpose updates the hash it moves and says why.  Every row
of the scheme table runs in some config.
"""

import hashlib
import json

import pytest

from lsd.cli import main
from lsd.schemes import SCHEMES

_HEAD = """
[experiment]
kind = {kind}
model = {model}
name = golden

[params]
{params}

[run]
x0 = {x0}
T = 1
seed = 5
"""

_CIR = "k1 = 2\nk2 = 2\nk3 = {k3}"
_CEV = "k1 = 0.0625\nk2 = 1\nk3 = 0.4\nq = 0.75"
_WF = "k1 = 1\nk2 = 2\nk3 = 0.20101"
_HESTON = "k1 = 0.1\nk2 = 70\nk3 = 0.4472135954999579"
_AIT = "km1 = 2\nk0 = 3\nk1 = 4\nk2 = 6\nk3 = 1\nr = 2\nrho = 1.5"
_LADDER = "dt = 0.125, 0.0625, 0.03125\nref_step = 0.015625\nM = 32\n"

# name: (kind, model, params, x0, run lines)
CONFIGS = {
    "convergence": ("convergence", "cir", _CIR.format(k3=1), 4,
                    "schemes = lsd1, lsd3\nreference = lsd2\n"
                    "dt = 0.125, 0.0625, 0.03125\nref_step = 0.00390625\nM = 64\n"),
    # 2^12 reference steps for 300 paths: four time chunks of one block,
    # which spans two slices of the sums over paths
    "chunked": ("convergence", "cir", _CIR.format(k3=1), 4,
                "schemes = lsd1, lsd3\ndt = 0.0625, 0.03125, 0.015625\n"
                "ref_step = 0.000244140625\nM = 300\n"),
    "exact-cir": ("exact-cir", "cir", _CIR.format(k3=2), 4,
                  "schemes = lsd1, lsd3\ndt = 0.03125, 0.015625, 0.0078125\n"
                  "M = 64\nm = 0.25\n"),
    # 2^9 reference steps, too few to chunk, so a block is widened to 512
    # paths: blocks of 512 and 88, across three slices of the sums over paths
    "wide": ("convergence", "cev", _CEV, 0.0625,
             "schemes = implicit, lsd1\ndt = 0.125, 0.0625, 0.03125\n"
             "ref_step = 0.001953125\nM = 600\n"),
    # a short two-driver lattice: its 300 paths fit one widened block
    "wide-exact-cir": ("exact-cir", "cir", _CIR.format(k3=2), 4,
                       "schemes = lsd1, lsd3\n"
                       "dt = 0.0078125, 0.00390625, 0.001953125\n"
                       "M = 300\nm = 0.25\n"),
    # 2^11 reference steps of two drivers for 300 paths: one block in four
    # time chunks of 512 steps, as the exact_ou benchmark workload runs
    "chunked-exact-cir": ("exact-cir", "cir", _CIR.format(k3=2), 4,
                          "schemes = lsd1, lsd3\n"
                          "dt = 0.001953125, 0.0009765625, 0.00048828125\n"
                          "M = 300\nm = 0.25\n"),
    "scan": ("scan", "cir", "k1 = 1\nk2 = 2\nk3 = 20", 4,
             "schemes = lsd1, lsd2, lsd3, sd_theta, alf, ns\n"
             "dt = 0.01, 0.001\nM = 32\n"),
    "simulate": ("simulate", "cir", _CIR.format(k3=2), 4,
                 "schemes = lsd1, alf, exact_ou, ns\ndt = 0.02, 0.01\n"),
    "compare": ("compare", "cir", _CIR.format(k3=1), 4,
                "schemes = lsd1, lsd2, sd_theta\ndt = 0.02, 0.01\n"),
    "compare-exact-ou": ("compare", "cir", _CIR.format(k3=2), 4,
                         "schemes = exact_ou, lsd1, lsd2\ndt = 0.02, 0.01\n"
                         "m = 0.3\n"),
    "heston32": ("convergence", "heston32", _HESTON, 1,
                 "schemes = lsd1, lsd2, sd_exp, implicit\n" + _LADDER),
    "cev": ("convergence", "cev", _CEV, 0.0625,
            "schemes = lsd1, implicit\n" + _LADDER),
    "wf": ("convergence", "wf", _WF, 0.5, "schemes = lsd1, implicit\n" + _LADDER),
    "ait": ("convergence", "ait", _AIT, 4, "schemes = lsd1, implicit\n" + _LADDER),
    "cev-others": ("convergence", "cev", _CEV, 0.0625,
                   "schemes = lsd2, lsd3, sd_theta\n" + _LADDER),
    "wf-others": ("convergence", "wf", _WF, 0.5,
                  "schemes = lsd2, lsd3, lsd4, sd, sd_alt, biss, hyb\n" + _LADDER),
    "ait-others": ("convergence", "ait", _AIT, 4,
                   "schemes = lsd2, implicit_printed\n" + _LADDER),
    # the printed map has no preimage above its maximum, which paths from
    # x0 near 1 soon ask for; from 0.02 both step sizes complete
    "wf-printed": ("simulate", "wf", _WF, 0.02,
                   "schemes = implicit_printed\ndt = 0.01, 0.001\n"),
    # the LSD rows with the paper's printed coefficients, each model in the
    # setting of the config that runs its plain rows
    "cir-printed": ("scan", "cir", "k1 = 1\nk2 = 2\nk3 = 20", 4,
                    "schemes = lsd1_printed, lsd2_printed, lsd3_printed\n"
                    "dt = 0.01, 0.001\nM = 32\n"),
    "cev-printed": ("convergence", "cev", _CEV, 0.0625,
                    "schemes = lsd1_printed, lsd2_printed, lsd3_printed\n"
                    + _LADDER),
    "heston32-printed": ("convergence", "heston32", _HESTON, 1,
                         "schemes = lsd1_printed, lsd2_printed\n" + _LADDER),
}

SHA256 = {
    "convergence":
        "a77aabdeb092074c50ac6cd1810035a7f12977a08a5cdeeb7542ec2b8b0487f6",
    "chunked":
        "b3a70733885a5afbdb13169c87bb3b89799e2001c11356def39b151ae52c6c3e",
    "exact-cir":
        "e3b5c571ed82fe61f3c8f03debda55467c4c8eddb195c3ea29cfac4edbf1a28b",
    "wide": "bf8b03079b3a9d0b71bb9aaee9a15a51a9171316ba5ca5bc67a8d3e77427526b",
    "wide-exact-cir":
        "44a0934d52d8b3c0c91117d67522d2d6fa59600f3ae137f50766008304d66fdb",
    "chunked-exact-cir":
        "0336781f08ff5b4eb666f0e5f1072541ad58674a25d8762376dad712d7f5ed4f",
    "scan": "2e5e0c1619afff859d9749a7e80a53e03717a8117853b975e45daf12abbdf35b",
    "simulate":
        "9633f9f1fb3678b38ce4ef9c17b83b89f3a40bd2269de21ad68a99f5aa83e037",
    "compare":
        "b2114fe3eacc73315396a440ef1d915c57b30fe64092853b90450b0228975c82",
    "compare-exact-ou":
        "29a58f69220fb6391215dafab3925ae1472bec6d1553fafdd669e4fdd81850dd",
    "heston32":
        "b9d2e26ab072fdc7175e0d15a68e230ebc2378ce95dc86a5719619d5ebcb0e96",
    "cev":
        "ec8ee9149d6e27af55d23a8127bafbcd2bff93bd750aeb897caa85b7310d9a45",
    "wf":
        "d93f618a79d7836d8473a7bd6a9b688b59d727b6d8a2e6ab7c37518e1270ad64",
    "ait":
        "d58b0092ed2c47c171cafa5390530b4667c0ea9c5754a4fa1d652cfec66e4267",
    "cev-others":
        "60dbdc6da39f3de36d148c0a2b78928f8780d6bf3178ea60fd6201a25d9c45b0",
    "wf-others":
        "60b83b4c8a38812579a4258e8738acf059d2569de4def447b049cddb2330ff34",
    "ait-others":
        "e96044a3d7425f87c7d5e78be9c4fbfcf11a217b5281ac9fbf526dd05c0c4801",
    "wf-printed":
        "825afd8640a237c770d749a82bfdf4f80b767cfb575498ed741c7f278251dfd2",
    "cir-printed":
        "95ee811e2fda03e9ea6f6cf8fde79577c00eaebcb48db50a6d6cbf891d5d4b8b",
    "cev-printed":
        "caee29cbaf1825f0a90b1364a48367ca85b3b7840effd77aa3fee8204e593b1d",
    "heston32-printed":
        "1159fb5df40d11354f3ff6b2a7129ac8037da1c7d3c976961a292470370d09b7",
}


def config_text(name):
    kind, model, params, x0, run = CONFIGS[name]
    return _HEAD.format(kind=kind, model=model, params=params, x0=x0) + run


def csv_sha256(name, tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(config_text(name))
    assert main([str(cfg), "--out", str(tmp_path / "o")]) == 0
    return hashlib.sha256((tmp_path / "o" / "golden.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_csv_is_byte_identical(name, tmp_path):
    got = csv_sha256(name, tmp_path)
    assert got == SHA256[name], f"{name}: CSV sha256 is {got}"


def _plan(width, chunks, steps, tile):
    return {"block_width": width, "chunks_per_block": chunks,
            "steps_per_chunk": steps, "paths_per_draw": tile}


@pytest.mark.parametrize("name, plan", [
    ("chunked", _plan(300, 4, 1024, 128)),
    ("chunked-exact-cir", _plan(300, 4, 512, 256)),
    ("wide-exact-cir", _plan(300, 1, 512, 256)),
    ("scan", {"0.01": _plan(32, 1, 100, 32), "0.001": _plan(32, 1, 1000, 32)}),
])
def test_summary_records_the_block_plan(name, plan, tmp_path):
    # the plan is in the JSON only: the CSV keeps its pinned bytes
    assert csv_sha256(name, tmp_path) == SHA256[name]
    summary = json.loads((tmp_path / "o" / "golden.json").read_text())
    assert summary["block_plan"] == plan


def test_every_scheme_row_is_pinned():
    pinned = set()
    for _, model, _, _, run in CONFIGS.values():
        for line in run.splitlines():
            key, _, value = line.partition(" = ")
            if key in ("schemes", "reference"):
                pinned.update((model, v.strip()) for v in value.split(","))
    assert sorted(set(SCHEMES) - pinned) == []
