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
    # operations; recorded from an engine that held vectors as dense lists
    ("hypo", 3, "rational"): "8b7c5a0815bec97af9a0020af4e2bb0ee1ee2d9f7e1291650740dba83c012f53",
    ("skew", 3, "rational"): "4cfdd2f9dd7522e6445a4060dd21c0dfac748dbc45c659a4f8cdba09d663cf5f",
    ("tower", 3, "rational"): "bb3c23e0aac7a01a2b925f85fc986b6aaef674a44633f588760f8480c9b7d68e",
    ("hypo", 3, "prime"): "c764d4edd1627e822ac4edf4f2bd63054f77a42c9814f61fa874f30abc7806b4",
    ("skew", 3, "prime"): "b69e0990bb6981172efd7996d4d18f19518eafd81d5693d634dd8b2999df886c",
    ("tower", 3, "prime"): "289ca710707ff8a68ce12f37ca864e6738f967a8aeb888c799a1bb4d3df3e4aa",
}

COMMANDS = {"dims": ["dims"], "integral": ["integral"], "hypo": ["hypo"],
            "rhoD": ["verify", "rhoD", "--trials", "4"],
            "skew": ["verify", "skew-commutation", "--trials", "4"],
            "tower": ["verify", "tower", "--trials", "4"]}


@pytest.mark.parametrize("command,rank,field", sorted(GOLDEN))
def test_stdout_digest(command, rank, field, capsys):
    # the memory bound is printed in the config; pin it to the default
    argv = COMMANDS[command] + ["--type", "A", "--rank", str(rank), "--field", field,
                                "--seed", "5", "--memory-bound", "50000000"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(command, rank, field)]
