"""Golden stdout digests: identical configurations print identical bytes.

Each digest is the sha256 of the stdout of one ``nwalg`` command.  They
were recorded from an engine that held every rational as a ``Fraction``
and every structure matrix as row dicts, so they also pin that the
integer-first lane and the column layout print the same bytes.  A change
of engine version, report layout, basis order or any printed scalar
changes a digest.
"""

import hashlib

import pytest

from nwalgebra import cli

GOLDEN = {
    ("dims", 2, "rational"): "fc79a334c87fbe7b9836bcc7dc7e842801e87f397c4103013719c13563c6576a",
    ("integral", 2, "rational"): "f52f70212f41d960a1a43e9f14736985ec59e23ce2cf1dc861526ab92613ae9d",
    ("rhoD", 2, "rational"): "450e85a1127577ce09a28904f819e1aa234892fea5de749f08197fb8b8df481a",
    ("dims", 2, "prime"): "c52fda3abf9acdb525b61ab57e6d4ffe0cd382cb3ac7bf23245331e05875c00c",
    ("integral", 2, "prime"): "0006b4492c2f8ea319a2acd16ff65999138107fd26e2e7eb1948e74613f03f49",
    ("rhoD", 2, "prime"): "dc2e26b72f828c22fdfbe0850787e70f90db3e580a1df2560228cfb5fea0208e",
    ("dims", 3, "rational"): "2e1992a8d2d1e6d1acaa45da626ac9e08c77a7c1cf92ad4b98019f233bb14518",
    ("integral", 3, "rational"): "be63859324620b39397acf45ab7049f38fa13919b44919ed18397ac251796093",
    ("rhoD", 3, "rational"): "4c923249952612c5c8570a7fa3a34b4906dad31d344c7b57469d38c38087570e",
    ("dims", 3, "prime"): "a40edcc2687a773715ef90a15661abc97d63eb48293d3592f5fc21ac85b56475",
    ("integral", 3, "prime"): "62d08d74049207b9ff32185445fc04bdafd40d7c02b1858ac7f46919d60a63d4",
    ("rhoD", 3, "prime"): "c00471e9a85537acde2ed2ebd3b5fb2c283920e4756b155aa16711f40a6dac99",
    # the kernel samplers, the subalgebra bases and the sparse element
    # operations; recorded from an engine that held vectors as dense lists,
    # except the two tower digests, recorded when ``verify tower`` went from
    # v = e (D_{w_o x_v} the identity) to v = s_0
    ("hypo", 3, "rational"): "8b7c5a0815bec97af9a0020af4e2bb0ee1ee2d9f7e1291650740dba83c012f53",
    ("skew", 3, "rational"): "4cfdd2f9dd7522e6445a4060dd21c0dfac748dbc45c659a4f8cdba09d663cf5f",
    ("tower", 3, "rational"): "f886bfb8c599f70d446a3e07fcffc951568ad9a677571afee31fa64e6f9efe20",
    ("hypo", 3, "prime"): "c764d4edd1627e822ac4edf4f2bd63054f77a42c9814f61fa874f30abc7806b4",
    ("skew", 3, "prime"): "b69e0990bb6981172efd7996d4d18f19518eafd81d5693d634dd8b2999df886c",
    ("tower", 3, "prime"): "9bb68aac121eb9250137d12b01231af5a0dba3a5f6414e750effeb3c8982ba8e",
    # the Gram matrix, the antipode and the group action; recorded from an
    # engine that built the action and word reversal word by word and held
    # the Gram matrix as dense rows
    ("pairing", 3, "rational"): "b8156a0a5508f58ab0f6ae8c82fe11a11f86acec42c5ba0d00bbbdcee14632df",
    ("nz-antipode", 3, "rational"): "8c90a8034fd2988cbc12b1877c020cf00a9ef940c529ed857e7121bc1709fa24",
    ("pairing", 3, "prime"): "a5104f0320add42a3e11e7d017c89e9d31d485a0a880756fcc8b403e9a97e25e",
    ("nz-antipode", 3, "prime"): "4fabcd1982686139c2dce9537f7121c67290ec27efa0a0e41ee405d0f56a0964",
    # the start/end annihilation witnesses and the generalized Leibniz
    # rule; recorded from an engine that built every group-action matrix
    # in full and recomputed each operand inside the check loops
    ("basic-rev", 3, "rational"): "b7cd5ecb8cfa939b30c9b036e47b4076c556ce2be4f948f7091b20ea38e03501",
    ("gen-leibniz", 3, "rational"): "0cfe296513edc28d7218c5e7b532216d3f172291ade02ac344d7bba8456f18d2",
    ("basic-rev", 3, "prime"): "f8d3fddc1714dc25d2662027dc6c53c3c10faa59e9a3be32c63afa2ec2759f66",
    ("gen-leibniz", 3, "prime"): "ec5c047250c9696aabc56b3fee6a7c3106b2d84d74f61b8b9f6b66133f543f7c",
}

COMMANDS = {"dims": ["dims"], "integral": ["integral"], "hypo": ["hypo"],
            "pairing": ["pairing"],
            "nz-antipode": ["verify", "nz-antipode", "--trials", "4"],
            "rhoD": ["verify", "rhoD", "--trials", "4"],
            "skew": ["verify", "skew-commutation", "--trials", "4"],
            "tower": ["verify", "tower", "--trials", "4"],
            "basic-rev": ["verify", "basic-rev", "--trials", "4"],
            "gen-leibniz": ["verify", "gen-leibniz", "--trials", "4"]}


# capped prime-field builds past the rank-3 top; the rank-4 ones recorded
# from the word build, before dims and hilbert built one class block per
# orbit, and A5 to degree 5 (whose dims the word build gives too) before
# the orbit build derived relation-paired candidates below the cap
CAPPED = {
    ("dims", "A", 4, 6): "7623bc5bbd001a6224b320b1295eb7b5eac2ba2ffbb9713882859c61711e9c91",
    ("dims", "A", 5, 5): "7bf1d47f07e8fbfc8eced11b0f6ea87b01711f4284db272d162cf73ff5506331",
    ("dims", "D", 4, 5): "01a0fda61606aa3071ffcfce3932c517e1d0508805ea750099ec0aa2ea3b4938",
    ("hilbert", "A", 4, 6): "7fe430d0595db4fdd5f1e63ff6371ae9d61d8910fa723f542b8ed546c2e043e1",
    ("hilbert", "D", 4, 5): "555908914c10601fcaa4a12f189f21d60e84aa6bcea9b186f85c99eed3da050d",
}


@pytest.mark.parametrize("command,rank,field", sorted(GOLDEN))
def test_stdout_digest(command, rank, field, capsys):
    # the memory bound is printed in the config; pin it to the default
    argv = COMMANDS[command] + ["--type", "A", "--rank", str(rank), "--field", field,
                                "--seed", "5", "--memory-bound", "50000000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(command, rank, field)]


@pytest.mark.parametrize("command,type_,rank,cap", sorted(CAPPED))
def test_capped_stdout_digest(command, type_, rank, cap, capsys):
    argv = [command, "--type", type_, "--rank", str(rank), "--field", "prime",
            "--degree-cap", str(cap), "--seed", "5", "--memory-bound", "50000000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CAPPED[(command, type_, rank, cap)]


# word-build commands past rank 3, recorded before the word build derived
# the candidates whose prefix is not a basis word.  ``pairing`` embeds the
# nilCoxeter elements up to the longest length, past these caps, and exits
# 3 with no stdout; the antipode check reads the right multiplications
# in its place
WORD_BUILD = {
    ("rhoD", "A", 4, 5): "65b4830472778e5da2170e319dc37a8ac53fb40209400e4ff889e02426f0e37e",
    ("rhoD", "D", 4, 4): "fe5fb3776ba90edef60a9c2f43dcb32503e64718dd6adb2df2b45ced2403fca8",
    ("nz-antipode", "A", 4, 5): "69075489784a5defa786c25367a5f54f2a7e4ee30c76575d0b7d0d5ef07acf15",
    ("nz-antipode", "D", 4, 4): "1a56e1a9888a8bd97df233f61a6c2a2d32bfc108b7259875a81cd3902c4efcdc",
}


@pytest.mark.parametrize("identity,type_,rank,cap", sorted(WORD_BUILD))
def test_capped_word_build_stdout_digest(identity, type_, rank, cap, capsys):
    argv = ["verify", identity, "--trials", "2", "--type", type_, "--rank", str(rank),
            "--field", "prime", "--degree-cap", str(cap), "--seed", "5",
            "--memory-bound", "50000000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == WORD_BUILD[(identity, type_, rank, cap)]
