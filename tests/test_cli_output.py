"""The command line's output, pinned byte for byte and re-checked record by record.

Records are stable byte for byte for fixed inputs, so each command below
pins one sha256 over its exit code, stdout and stderr; a changed byte
names the command that printed it.  argparse's own errors and ``-h`` are
left out: their text changes between Python versions.  The scan columns
are run as ``python -m kendallcodes``, and every record they print must
parse back and pass the checker, with pinned verdict counts.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kendallcodes
from kendallcodes.certifier import INCONCLUSIVE, NONEXISTENT_NOT_DIVIDING, NONEXISTENT_PRIME_FACTOR
from kendallcodes.checker import check_certificate, parse_certificate
from kendallcodes.cli import EXIT_INCONCLUSIVE, main

# D(1019) = 518671 and D(200) = 19900; MAX_BALL_WORK refuses (200, 14697),
# (10000, 1020) and (200, 5202), and serves (200, 5201) and (10000, 1019)
OUTPUT_DIGESTS = [
    (
        "scan --t 2 --from 2 --to 3000",
        "04996ad7708a1546c6dadaa4e1569c3e40668336ded2add488142ac8c684dcc4",
    ),
    (
        "scan --t 3 --from 2 --to 3000",
        "09ef5811ae4a345d587a820810d6a37d489a03987ec077eebe58c661d059bc97",
    ),
    (
        "scan --t 4 --from 2 --to 3000",
        "48c2cfdd6e772ac7d6047a4c09217be5603cae03a032cea54482e8a81770db16",
    ),
    (
        "scan --t 5 --from 2 --to 3000",
        "af5bfb1b7fe99cfa605254813acc3334abbf69466398e4d4defd951d441a98fa",
    ),
    (
        "scan --t 2 --from 3001 --to 10000",
        "4826fcd94785e5e6f4524fd259425812c3cdd053934d524da03f066305a1f4ee",
    ),
    (
        "scan --t 3 --from 3001 --to 10000",
        "f0ecae06f008fb369d2034f59a75e4276352b42e150734ff672a1fc0dc2ca510",
    ),
    (
        "scan --t 4 --from 3001 --to 10000",
        "37882cb39b0c835d1e794368e45ce39a4aaddabad4b21f2ab408dfd7a9531cfb",
    ),
    (
        "scan --t 5 --from 3001 --to 10000",
        "9f7540f4f28c51eed9cd51776b25ffd05cd724f6d5e03a760dee432e3d627c16",
    ),
    (
        "scan --t 6 --from 2 --to 3000",
        "9626cdf406624e39f045c78b57c20bf81fe1b702c973fd722e2d56e03aa985ce",
    ),
    (
        "scan --t 30 --from 2 --to 3000",
        "dcf5b424d264243539f7cf6a869f24014ee86775fa420751555fdc16fe125649",
    ),
    (
        "scan --t 100 --from 2 --to 3000",
        "8417eaa86bc5b66234059a51907bc12ebf4808bbcc728200954286144d7b700b",
    ),
    (
        "scan --t 1019 --from 2 --to 60",
        "c40627207fdd253ea9e3ce39c565fb494e547a3be1b5f965136d61b441022a96",
    ),
    (
        "scan --t 1019 --from 1015 --to 1025",
        "679d073c462ac820d9b8690701f411e23b1592135edef68fccf29f210da24704",
    ),
    (
        "scan --t 1019 --from 9995 --to 10000",
        "f05c49de9fbe1fd57f2537bdf434e2010c9c3daf43632f3913b9bae56dcdd629",
    ),
    (
        "scan --t 3 --from 2 --to 500 --format tsv",
        "8cc44f45dd97b7b25eb227a81ed9fa709ae795886bc690a446a7ca293321044e",
    ),
    (
        "scan --t 4 --from 2 --to 200 --format pretty",
        "5901f6770372a30a6300c12dd10bd60c9ce2b6baa287c5d9fc326944174aaf4d",
    ),
    (
        "certify --n 128 --t 8128",
        "e566e5ecdb09cb7d3d16566aaaf80d5f92eff82576fde8f666761bf726219647",
    ),
    (
        "certify --n 200 --t 5201",
        "93239a1b003d60085d2818429c5dc32f8ea8921a728c326b2ea2e8b5aeae3812",
    ),
    (
        "certify --n 1019 --t 1020",
        "6087973ecd7b44646e0baef93cbeb5290556b6f9d92d793063aad15a52126007",
    ),
    (
        "certify --n 47 --t 1019",
        "9e29707b9dccdf4297f6a3890a86e1e7f51faf35e854991a138ea2b355dd3669",
    ),
    (
        "certify --n 8 --t 100",
        "d23046afacf798371176aee387d69857df3d2cb1c75e624c3b8a29a696961a34",
    ),
    (
        "certify --n 129 --t 8256",
        "9faf8409b96ae2ab35db1b643214e65d0e3c042833ce3114337d5041cf33deb0",
    ),
    (
        "certify --n 10 --t 30 --format pretty",
        "f9f2980b0f9b83c7516d2bf50980fd6a2d60c946e06445afc99f13434a7f63d9",
    ),
    (
        "certify --n 13 --t 3 --format tsv",
        "8bb8fee0d3e8cb7ba6bde423009a70704e8cec8e3b0457be6b48cbfd84d9ffa0",
    ),
    (
        "certify --n 200 --t 14697",
        "98ee350ce99a8c52b8ad0ffdc100b468fe23c22cdcad4205112773613126ded3",
    ),
    (
        "certify --n 10000 --t 1020",
        "892e1c1750186ba207a4ae7edaa4104dbb7302a6ed597bbb9398975327ac795b",
    ),
    (
        "certify --n 10001 --t 2",
        "c3316a9e375f004e857874e9080aa8d8783f7f7c63a68f55fd3a5ba2dd60a681",
    ),
    (
        "table --max-n 40",
        "a85bb48c410c20a2893f1167c2ff4fc256292053a48222a4afd20203b58a070a",
    ),
    (
        "verify --n 2",
        "2e85f134ec8bfbf64c25cd38a2ab64e48055c4a38921b5d97bd9a0af69c405f8",
    ),
    (
        "verify --n 3",
        "8a4cff6c6089d331824a770e64c4b8d397722bbe23fa793920ea40094e88fcff",
    ),
    (
        "verify --n 4",
        "9c5cf44e89f7159f79fdb6aab9f2ec19b1b75c2f159c4813a03f507f121ce2bb",
    ),
    (
        "verify --n 5",
        "9ee1285ce1986fef6cfb63b73e0bf121ded2e21899d721e4a203d77613295a0c",
    ),
    (
        "verify --n 6",
        "be87944f03b7c761dc7f05455239a84a7064cfa300f34d7207eeb1405cb773e1",
    ),
    (
        "verify --n 7",
        "45a9c127d9f32e4ba1f2b0a5854ac1edf13d935ef231f271b9cd214fd91ccf14",
    ),
    (
        "verify --n 8",
        "0331e55cee28002f6c9aca79d3ee3dc2c595e8a2813141f53b782e37498543e1",
    ),
    (
        "sphere --n 2 --i 1",
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    ),
    (
        "sphere --n 4 --i 7",
        "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",
    ),
    (
        "sphere --n 1019 --i 518671",
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    ),
    (
        "sphere --n 200 --i 14699",
        "8d3ab337b4a72648ffbd4b0495fd4d15da0ea4d729ed3c8837237b2a65601c5c",
    ),
    (
        "sphere --n 200 --i 14698",
        "08db7da2d48d355cd6c3d68b14f25a7e7a865d253977df0a711d9c23e7f56632",
    ),
    (
        "sphere --n 10000 --i 1019",
        "854e6961dd78cfd002513cace62bc971ec571e87f7a944b3d0e4c977566f7928",
    ),
    (
        "sphere --n 1 --i 0",
        "13016dfe1b45586b64664a712e2488bc0ed160d41d23df96c3d30963cc91bd87",
    ),
    (
        "ball --n 1019 --r 518671",
        "b0a4cee066833114c2f8242993d36e8c2f1d8e9834fde7d25719e4ec6300bfd4",
    ),
    (
        "ball --n 200 --r 5201",
        "f4d39f391694dea9dab9517297a9e3c84a6953474454c735ec04f478c8f1e761",
    ),
    (
        "ball --n 200 --r 5202",
        "aa86b26746f22593ff56b362311bf715e044340a5eee86e11235741292b544d4",
    ),
    (
        "ball --n 10000 --r 1019",
        "4d530fa9700cc9b608d9bf891bb871783ecb5ff23304108fdf5284eff1b36ca0",
    ),
    (
        "ball --n 10000 --r 1020",
        "892e1c1750186ba207a4ae7edaa4104dbb7302a6ed597bbb9398975327ac795b",
    ),
]


@pytest.mark.parametrize(
    "command, digest", OUTPUT_DIGESTS, ids=[command for command, _ in OUTPUT_DIGESTS]
)
def test_every_output_byte_is_pinned(capsys, command, digest):
    code = main(command.split())
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest() == digest


# t = 3 holds all three verdicts.  t = 30 reaches every route of
# mahonian.ball_count: n <= 8 reflect to a negative radius, whose empty
# ball leaves n!; 9 and 10 reflect to Euler's sum and 11 to the truncated
# product; 12-14 take the truncated product, 15-29 Euler's sum plus one
# ball of S_(n+1), and 30 on Euler's sum with that ball empty.  At
# t = 14698 every n to 200 is past its midpoint: n! up to n = 171, then
# reflected balls, and n = 200 reflects to radius 5201, the product route
# at the work bound.
SCAN_COLUMNS = [
    (3, 1000, {NONEXISTENT_PRIME_FACTOR: 843, NONEXISTENT_NOT_DIVIDING: 4, INCONCLUSIVE: 152}),
    (30, 128, {NONEXISTENT_PRIME_FACTOR: 120, INCONCLUSIVE: 7}),
    (14698, 200, {NONEXISTENT_PRIME_FACTOR: 29, INCONCLUSIVE: 170}),
]


@pytest.mark.parametrize(
    "t, n_to, verdicts", SCAN_COLUMNS, ids=[f"t{t}-n2..{n_to}" for t, n_to, _ in SCAN_COLUMNS]
)
def test_every_record_of_a_scan_column_checks(t, n_to, verdicts):
    src = str(Path(kendallcodes.__file__).resolve().parents[1])
    argv = ["scan", "--t", str(t), "--from", "2", "--to", str(n_to)]
    proc = subprocess.run(
        [sys.executable, "-m", "kendallcodes", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    # each column has INCONCLUSIVE records
    assert (proc.returncode, proc.stderr) == (EXIT_INCONCLUSIVE, "")
    lines = proc.stdout.splitlines(keepends=True)
    certs = [parse_certificate(line) for line in lines]
    assert [cert.n for cert in certs] == list(range(2, n_to + 1))
    rejected = [line for cert, line in zip(certs, lines) if not check_certificate(cert)]
    assert rejected == []
    assert Counter(cert.verdict for cert in certs) == verdicts
