"""The golden chain: every subcommand on small inputs, and the digests of what it writes.

``tests/golden.json`` maps an environment (the numpy version and the
OpenBLAS kernel set it runs) to the sha256 of every file the chain
writes except ``run.log``. Outputs are bitwise per kernel set, not per
installation, so the key names both. ``test_golden.py`` runs the chain
against the table; ``devtools/regen_golden.py`` rewrites the table's
entry for the running environment.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy

import geckit
from geckit.textcore import emit_sentences, parse_m2

TABLE = Path(__file__).resolve().parent / "golden.json"
REGENERATE = "devtools/regen_golden.py"

_GEC = ("--epochs", "3", "--embed-dim", "8", "--hidden-dim", "12", "--batch-size", "16")
# Every subcommand, both grammar families, both losses and all three decoders,
# in waves: the invocations of a wave read only what earlier waves wrote, so
# they run at once. Paths are relative to the run directory, so the config
# snapshots compare.
CHAIN = (
    (
        ("synth-gen", "--preset", "mix_a", "--seed", "5", "--gec-train", "60", "--gec-dev", "12",
         "--gec-test", "20", "--cola-pairs", "300", "--out", "synth"),
        ("synth-gen", "--preset", "char_mix", "--seed", "9", "--gec-train", "60", "--gec-dev", "12",
         "--gec-test", "20", "--cola-pairs", "300", "--out", "char"),
    ),
    (
        ("train-judge", "--train", "synth/cola_train.tsv", "--dev", "synth/cola_dev.tsv",
         "--dim", "16384", "--epochs", "12", "--out", "judge"),
        ("train-gec", "--train", "synth/gec_train.m2", "--dev", "synth/gec_dev.m2", *_GEC, "--out", "gec"),
        ("build-cola", "--m2", "synth/gec_train.m2", "--m2", "char/gec_train.m2", "--seed", "5",
         "--out", "cola"),
        ("extract-edits", "--source", "char_sources.txt", "--target", "char_targets.txt",
         "--lexicons", "char/lexicons", "--out", "edits"),
    ),
    (
        ("ablate", "--train", "synth/gec_train.m2", "--test", "synth/gec_test.m2",
         "--judge", "judge/judge.json", "--seeds", "0", *_GEC, "--beam", "2", "--out", "ablate"),
        ("train-gec", "--train", "synth/gec_train.m2", "--dev", "synth/gec_dev.m2", "--loss", "dynamic",
         "--judge", "judge/judge.json", *_GEC, "--out", "gec-dynamic"),
        ("judge-eval", "--model", "judge/judge.json", "--data", "cola/cola_dev.tsv", "--out", "judge-eval"),
        ("decode", "--model", "gec/gec_model", "--input", "sources.txt", "--beam", "1", "--out", "greedy"),
    ),
    (
        ("decode", "--model", "gec-dynamic/gec_model", "--input", "sources.txt", "--beam", "4",
         "--judge", "judge/judge.json", "--out", "rerank"),
        ("error-analysis", "--hyp", "greedy/corrected.txt", "--gold", "synth/gec_test.m2",
         "--lexicons", "synth/lexicons", "--out", "analysis"),
    ),
    (
        ("evaluate", "--hyp", "rerank/corrected.txt", "--gold", "synth/gec_test.m2",
         "--lexicons", "synth/lexicons", "--out", "evaluate"),
        ("error-analysis", "--hyp", "rerank/corrected.txt", "--gold", "synth/gec_test.m2",
         "--filter-mode", "drop_sentences", "--out", "analysis-sentences"),
    ),
)  # fmt: skip


def openblas_core() -> str:
    """The kernel set of the OpenBLAS that numpy mapped, or 'unknown'."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    for path in sorted(paths):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def environment() -> str:
    return f"numpy {numpy.__version__}, OpenBLAS {openblas_core()}"


def _write_sentences(base: Path, name: str, sentences) -> None:
    (base / name).write_text(emit_sentences(sentences), encoding="utf-8")


def run_chain(base: Path) -> None:
    """Run CHAIN in base, an empty directory; a wave that ends with a nonzero exit raises AssertionError."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("GECKIT_")}
    env["PYTHONHASHSEED"] = "0"
    inherited = [os.path.abspath(entry) for entry in env.get("PYTHONPATH", "").split(os.pathsep) if entry]
    env["PYTHONPATH"] = os.pathsep.join([str(Path(geckit.__file__).resolve().parents[1]), *inherited])
    for wave in CHAIN:
        runs = [
            (argv, subprocess.Popen([sys.executable, "-m", "geckit", *argv], cwd=base, env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
            for argv in wave
        ]  # fmt: skip
        ended = [(argv, proc.communicate()[1], proc.returncode) for argv, proc in runs]
        for argv, stderr, code in ended:
            if code != 0:
                raise AssertionError(f"{' '.join(argv)} exited {code}: {stderr}")
        if wave is CHAIN[0]:  # the sentence files that later waves read
            test = parse_m2((base / "synth" / "gec_test.m2").read_text(encoding="utf-8"))
            _write_sentences(base, "sources.txt", [pair.source for pair in test])
            char = parse_m2((base / "char" / "gec_test.m2").read_text(encoding="utf-8"))
            _write_sentences(base, "char_sources.txt", [pair.source for pair in char])
            _write_sentences(base, "char_targets.txt", [pair.target for pair in char])


def digests(base: Path) -> dict[str, str]:
    """sha256 of every file under base except run.log, keyed by its relative POSIX path."""
    return {
        path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(base.rglob("*"))
        if path.is_file() and path.name != "run.log"
    }
