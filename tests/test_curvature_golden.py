"""Golden digests of `nilgeo curvature` reports.

Each entry is an argv, its exit code and the sha256 of its stdout, recorded
from the object-per-operation curvature code that the tensor-contraction
rewrite replaced. Exact arithmetic makes every report a pure function of its
argv, so a changed digest means a changed report byte.

Covered: the contact Calabi-Yau structures on H3, H5, H7 with a rotated
epsilon (Ricci, alpha-Einstein and transverse Ricci), a Sasakian request
without epsilon, seeded rational metrics on the filiform algebras F4-F7 and
on H7, and the failure paths (not alpha-Einstein, not Sasakian, a
normalization failure, a degenerate metric).
"""

import hashlib

import pytest

from nilgeo.cli import main

GOLDEN = (
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12)',
            '--alpha',
            '2*e3',
            '--J',
            'pairs:(1,2)',
            '--epsilon',
            '(3/5+4/5*i)*((e1+i*e2))',
        ],
        0,
        'ce3dd154e785f98ca8462b87e5b5f3976a70c7460513385a0fdfff1dadd9c286',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,0,0,12+34)',
            '--alpha',
            '2*e5',
            '--J',
            'pairs:(1,2),(3,4)',
            '--epsilon',
            '(5/13+12/13*i)*(e1+i*e2)^(e3+i*e4)',
        ],
        0,
        '13112a4fa16f94a6ffdcb22fa68aa4a62a2be21ec86f17a94d2ab2fc6f42ee2a',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,0,0,0,0,12+34+56)',
            '--alpha',
            '2*e7',
            '--J',
            'pairs:(1,2),(3,4),(5,6)',
            '--epsilon',
            '(8/17+15/17*i)*(e1+i*e2)^(e3+i*e4)^(e5+i*e6)',
        ],
        0,
        'c4dba3855ff53236d9d6f379a66e48b33d169a149f866b63e1ca22ac54b0f06f',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,0,0,12+34)',
            '--alpha',
            '2*e5',
            '--J',
            'pairs:(1,2),(3,4)',
        ],
        0,
        '4d62dd61779d4e8cd295b314a9976f17a21a6f4824165948bb5077b6d5fe209a',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12,13)',
            '--metric',
            '[["1/2", "0", "-1/2", "1/4"], ["0", "3", "0", "0"], ["-1/2", "0", "5/2", "-1/4"], ["1/4", "0", "-1/4", "5/8"]]',
        ],
        0,
        'ab55d387da8cd59afe42d21db38c21e8046f5f1b00b95adfcdd7a0d41a29b2aa',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12,13,14)',
            '--metric',
            '[["3", "0", "0", "0", "3/2"], ["0", "1", "0", "0", "0"], ["0", "0", "2", "-2", "0"], ["0", "0", "-2", "5/2", "0"], ["3/2", "0", "0", "0", "11/4"]]',
        ],
        0,
        'f3efb55a4aec4cb6786c5d44f34c9d82a2ce8598017932e766a078f91ff6290b',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12,13,14,15)',
            '--metric',
            '[["3", "0", "0", "3", "0", "0"], ["0", "1/2", "0", "0", "0", "0"], ["0", "0", "1/2", "0", "-1/4", "0"], ["3", "0", "0", "4", "0", "0"], ["0", "0", "-1/4", "0", "17/8", "0"], ["0", "0", "0", "0", "0", "3"]]',
        ],
        0,
        '8da9d1497fc970251e71c2708a9a59e5620d9e4b34a51e55f9c6e9d29f5c0f56',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12,13,14,15,16)',
            '--metric',
            '[["3", "0", "0", "0", "0", "-3", "0"], ["0", "1/2", "0", "0", "0", "0", "0"], ["0", "0", "1/2", "0", "0", "1/4", "0"], ["0", "0", "0", "3", "0", "0", "0"], ["0", "0", "0", "0", "2", "0", "0"], ["-3", "0", "1/4", "0", "0", "29/8", "0"], ["0", "0", "0", "0", "0", "0", "2"]]',
        ],
        0,
        'b02e08c6f2942d41b50d7a8f52f9e7a598153e8a802e94755a8bd4fdd789987e',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,0,0,0,0,12+34+56)',
            '--metric',
            '[["3", "0", "3", "0", "-3", "0", "0"], ["0", "3", "0", "0", "0", "0", "0"], ["3", "0", "7/2", "0", "-3", "0", "0"], ["0", "0", "0", "1", "0", "0", "0"], ["-3", "0", "-3", "0", "6", "0", "0"], ["0", "0", "0", "0", "0", "2", "0"], ["0", "0", "0", "0", "0", "0", "2"]]',
        ],
        0,
        'd4a1fea0dfb40701f81d754670b920454f79f4d94b1c8d66497f0341beb3c6ea',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12)',
            '--metric',
            '[[2,1,0],[1,1,0],[0,0,1]]',
            '--alpha',
            'e1',
        ],
        1,
        'c0aace33a3f6bf10a91be5146bbfd4b3e1c07b36a7ac5c0338d5161154a75669',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12,13,14+23)',
            '--alpha',
            'e5',
            '--J',
            'pairs:(1,4),(2,3)',
        ],
        1,
        'cab1cf6c5b231de7dedf2ef53afa2788cfda47a721a824850dad93252dad5e20',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,0,0,12+34)',
            '--alpha',
            '2*e5',
            '--J',
            'pairs:(1,2),(3,4)',
            '--epsilon',
            '2*(e1+i*e2)^(e3+i*e4)',
        ],
        1,
        '27826656a64a57cecb7ce35ed0d98c85fd40ae3db5ff099a64fd72f444b6f124',
    ),
    (
        [
            'curvature',
            '--algebra',
            '(0,0,12)',
            '--metric',
            '[[1,0,0],[0,1,0],[0,0,0]]',
        ],
        2,
        'fd56c3e51ae46febf2fa424ab0575c9f63bd23907892a79e075be36726f5040d',
    ),
)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=range(len(GOLDEN)))
def test_curvature_report_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
