"""Golden sha256 digests of the CLI's stdout.

Each row is (argv, exit code, sha256 of stdout). The ``simulate`` and
``verify`` rows run at ``--workers 1`` and ``--workers 2`` against the one
digest, since output bytes must not depend on the worker count. A change
that moves a digest updates it here and names the change in CHANGES.md.

The digests were made with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux.
They are facts about that platform's libm and numpy as much as about the
code, so on another platform a mismatch says which versions are running.
"""

import hashlib
import platform

import numpy as np
import pytest

from memwalk.cli import main

MADE_WITH = "Python 3.11.7, numpy 2.4.6"

GOLDEN = [
    # K = 2 marks 1 024 and 1 025 straddle the second refill of the 512-step chunk;
    # lazy d = 2 (K = 5) back-to-back marks
    ("simulate --d 1 --theta 1 --p 0.75 --steps 3000 --checkpoints 1,1024,1025,3000 --reps 300 --seed 3",
     0, "2394422907d3d6936bdd63be6fb20771b7f99e11a155ebcfe76d6f3af97bafcc"),
    ("simulate --d 2 --lazy --theta 0.8 --p 0.5 --steps 700 --checkpoints 1,2,3,700 --reps 300 --seed 5",
     0, "1aed0a302b23b5348ad8035b3789e19ed7c1a4d8537f6c55b07fb14e62dc7919"),
    ("verify --tag lln --d 1 --theta 0.3 --p 0.8 --steps 2000 --reps 100 --seed 123",
     0, "3d2d71963b44ed4f3a01a1998577b1d92fdefdee80f38af58e28180c7dd38485"),
    ("verify --tag lln --d 2 --theta 0.8 --p 0.5 --init fixed:3 --steps 500 --reps 60 --seed 4",
     0, "012b4dc1a2ecabd39758eceea1e6fa765f7f4a17d7790ad4a32ef004352687b6"),
    # the cross-time ensemble walks to 4 * 300 steps; its gate reads 0.089 against 0.10
    ("verify --tag clt-diffusive --d 1 --theta 1 --p 0.6 --steps 300 --reps 1000 --seed 5",
     0, "d59414d59dabebf09364d36dfdb37d27430eb78b6b3d34bc329050d5e4ae086e"),
    # no checkpoints: the marks are 300 and 3 000
    ("verify --tag clt-critical --d 1 --theta 1 --p 0.75 --steps 3000 --reps 400 --seed 7",
     0, "b42e160a2b349068fbd349c92d716d37a3bbae0a0f1304e4d24da481cb40112b"),
    # n = 30 is far from the n log n limit: a fail
    ("verify --tag clt-critical --d 1 --theta 1 --p 0.75 --checkpoints 30,3000 --reps 400 --seed 7",
     2, "768a01383a36ad4d3469697548a3832e3145529a2e4d5d15dc85294f66833d2d"),
    ("verify --tag clt-critical --d 2 --theta 1 --p 0.625 --checkpoints 50,2000 --reps 300 --seed 8",
     0, "88f7383d143d4333a86b1d4df5db7057d3065bf0cd129ac613fc25120a56855e"),
    ("verify --tag superdiffusive --d 1 --theta 1 --p 0.9 --steps 2000 --reps 200 --seed 9",
     0, "bbd15759a1baf30a53f45759f1eae4d471ef99c1649190223cca07930ff1fc5a"),
    ("verify --tag moments --d 1 --theta 1 --p 0.9 --init fixed:0 --steps 2000 --reps 500 --seed 10",
     0, "2aa908ce695870504fb241594737170b281c0e610062952d7c8cd7f0fd086070"),
    ("verify --tag moments --d 2 --theta 1 --p 0.9 --steps 1000 --reps 300 --seed 2",
     0, "188f52110fb96351b58319c3506a0178285659793815189c26da061b29aa5eac"),
    ("theory --d 1 --theta 1 --p 0.9",
     0, "91239260e5a65972038c14f14ca790d719e1ecc7a901d45f701152491f819482"),
    ("theory --d 2 --lazy --theta 0.8 --p 0.5",
     0, "62ff395d1e7177a863f95865e2c1f6cb6629d0bebc372a127e943319db30ec0c"),
    ("oracle --d 1 --theta 1 --p 0.75 --steps 6",
     0, "6ee8ebaf52e249d09a4c1a829a3e68ef3718bb1dbbb7fcb2d7416d33f2e2b2c7"),
]


def runs():
    for line, code, digest in GOLDEN:
        argv = line.split()
        if argv[0] in ("simulate", "verify"):
            for workers in ("1", "2"):
                yield pytest.param(argv + ["--workers", workers], code, digest, id=f"{line} --workers {workers}")
        else:
            yield pytest.param(argv, code, digest, id=line)


@pytest.mark.parametrize("argv, code, digest", runs())
def test_stdout_digest(capsys, argv, code, digest):
    assert main(argv) == code
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    running = f"Python {platform.python_version()}, numpy {np.__version__}"
    assert got == digest, f"sha256 {got}; the golden digest was made with {MADE_WITH}, this is {running}"
