"""Pinned SHA-256 digests of CLI output files.

The other reproducibility tests compare one run against another, so a change
to the emitted bytes would pass them unseen.  These values pin the bytes
themselves; a change here is a change to the data format and must be made
on purpose.
"""

import hashlib

from mazekit.cli import main

POOL_DIGEST = "15bd6c5a18f8a3021b591e092127fc13ef1b5c3663754ec343845ca04ecc680a"
AUGMENT_DIGEST = "f352d97133787b3f150b04a180bb3d04606f3d8e07442bf8c4117f22e7902736"
BUILD_DIGESTS = {
    "test.jsonl": "c22484a0091db70935e9ca931e25be14fa1e470056303fc7bdfb2eda67063115",
    "sft.jsonl": "7eb1d3b41dabdec645cf4ce9678e6a438afe0426e1c45fa5911b4d1d92a0d33f",
    "grpo.jsonl": "3c2c57ae1a314d767574d69a653b5a7bf0167aaa0ec541d60d126d08ef80ba1a",
    "manifest.json": "c3e7418f3da7d31aa9919fc9494424279f9e673d0ee3fddc12738a1ae76ba85b",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_and_augment_digests(tmp_path, capsys):
    pool = tmp_path / "pool.jsonl"
    records = tmp_path / "records.jsonl"
    assert main(["generate", "--count", "500", "--seed", "7", "--out", str(pool)]) == 0
    assert sha256(pool) == POOL_DIGEST
    assert main(["augment", "--in", str(pool), "--seed", "11", "--out", str(records)]) == 0
    assert sha256(records) == AUGMENT_DIGEST


def test_build_dataset_digests(tmp_path, capsys):
    outdir = tmp_path / "ds"
    assert main(["build-dataset", "--seed", "42", "--scale", "400", "--out", str(outdir)]) == 0
    assert {name: sha256(outdir / name) for name in BUILD_DIGESTS} == BUILD_DIGESTS
