"""Golden outputs of the CLI: each command's exit code and the SHA-256
of its stdout and stderr, run in process through `cli.main`.

A change that moves an output fails here and must edit the row, so the
diff lists every output that moves.  The rows are the commands whose
bytes do not depend on the CPU or on numpy's BLAS kernel: `volume`,
`cs`, `verify` and the README's identity-pair `lipschitz`.  `rep` and
`euler` print a float residual that does (ROADMAP items 17 and 22), so
the `r.json` that `lipschitz` reads is written first but not pinned.
To print a row for a new command, run its argv through `_outputs`."""

import hashlib

import pytest

from adsvol import cli

GOLDEN = [
    (["volume", "--e", "-2", "--f", "0", "--k", "-2"], 0,
     "7d47a2d46abed27c6db8510e182e8c1cc0f01528b1bde349f81066189ca5e9ad",
     "801ce835bdfeaefbc0bab60e99a0b1540168c96ebb02b08d241703c75e68d57e"),
    (["volume", "--e", "-4", "--f", "2", "--k", "3"], 0,
     "643acd3d49c3387b55e67a3ff880e7eda3f6348636cb3f5077f56c57cd99a1bd",
     "a22626b8f5c3c8034cadff95430a6d60f89867dd36100a1337444e7c72e7a3ea"),
    (["volume", "--e", "3", "--f", "1", "--k", "0"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "7b357c1f13fee552cbf98f66bf37668d219a755c257a5484e1971352909846e3"),
    (["cs", "--e", "-4", "--f", "2", "--k", "3"], 0,
     "643acd3d49c3387b55e67a3ff880e7eda3f6348636cb3f5077f56c57cd99a1bd",
     "469f87375060be4c5027e020b3801a235b5cc81b9d100c24e52a6154f9dce703"),
    (["cs", "--e", "-2", "--f", "0", "--k", "-2"], 0,
     "7d47a2d46abed27c6db8510e182e8c1cc0f01528b1bde349f81066189ca5e9ad",
     "5da157c3a48b9ffea5fcd76c285931399c65d5d044e42407c97ea46d4675198b"),
    (["verify"], 0,
     "211c7cd645ef25775c4fb01289928aa4907f4d5f1d0b45d4db21872211dd2dd9",
     "b17b0f9c72680fc52f3d9a248584fa751ffde3ede4fc170a5c908f038268f4a7"),
    (["lipschitz", "--rho", "r.json", "--sigma", "r.json", "--max-word-len", "4"], 0,
     "b3d1f5d630e62b63d91dcfbe546829e0da07058ef8fd986b6eb4ab4b6752b4a1",
     "434119ce9039f30238f675e22ac7acfee5837dfe9d33207fef331d298e7e69a5"),
]


def _outputs(capsys, argv) -> tuple:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return (
        code,
        hashlib.sha256(captured.out.encode()).hexdigest(),
        hashlib.sha256(captured.err.encode()).hexdigest(),
    )


@pytest.fixture()
def readme_dir(tmp_path, monkeypatch, capsys):
    """A working directory holding the README's r.json."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["rep", "--genus", "2", "--out", "r.json"]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, stdout, stderr", GOLDEN, ids=[" ".join(row[0]) for row in GOLDEN]
)
def test_cli_output_is_golden(readme_dir, capsys, argv, code, stdout, stderr):
    assert _outputs(capsys, argv) == (code, stdout, stderr)
