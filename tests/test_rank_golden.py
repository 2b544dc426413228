"""Golden digests of the `betti` and `moduli-kernel` reports.

Each entry is an argv, its exit code and the sha256 of its stdout, recorded
from the dense pipeline that the sparse one replaced: d assembled column by
column from `LieAlgebra.d` on each monomial and ranked by fraction-free
(Bareiss) elimination, with `moduli-kernel` ranking its operator twice.
Exact arithmetic makes every report a pure function of its argv, so a
changed digest means a changed report byte.

Covered: the shipped 5-dimensional catalog; seeded unimodular basis changes
(a permutation and one to three +-1 shears) of filiform (F), Heisenberg (H)
and abelian (R) sums at dimensions 5 to 9, among them F9 and F5+F4; rational
structure constants; a dimension-11 algebra in the JSON format, the largest
dimension `betti` accepts; an algebra that fails Jacobi; the moduli operator
at N = 4, 6, 64 and 130; the rejected grid sizes N = 7 (odd) and N = 2.
"""

import hashlib

import pytest

from nilgeo.cli import main

GOLDEN = (
    # betti: catalog n5_step4
    (['betti', '--algebra', '(0,0,12,13,14+23)'], 0, 'f5fd08ee0e766f0089b79abde577c7ad262473ff3c138c07585a201713c95dba'),
    # betti: catalog n5_step3
    (['betti', '--algebra', '(0,0,0,12,13+24)'], 0, '796bdafa4c7d37e0bce7960400f913246565e7644ea2c80ee19e578bcf942537'),
    # betti: catalog n5_heis
    (['betti', '--algebra', '(0,0,0,0,12+34)'], 0, 'ecc86a7ff5ab5feffcbac3fece7d2baa675380b612fb6db2c125ca3981e9ae0d'),
    # betti: catalog n5_h3xR2
    (['betti', '--algebra', '(0,0,0,0,12)'], 0, '92bc4f3d29d3d499d5b5d652bf4f68f597a40bbf1ea6dbf37078dcefa9098c07'),
    # betti: catalog abelian5
    (['betti', '--algebra', '(0,0,0,0,0)'], 0, '5d2e265dc7653d2b07815f7b77b13e2595c2ae5ba0cb71c189ec82444c5b50d2'),
    # betti: F5, 2 shear(s)
    (['betti', '--algebra', '(12-23-25,0,-24+25,23,-12+23+25)'], 0, '1e05d4837149e8614cf84257e5152ed3166881dfd3e14c9ccf1f4e70a43930ab'),
    # betti: H3+H3, 2 shear(s)
    (['betti', '--algebra', '(36,0,0,25+26-56,0,0)'], 0, '2ce6b48166e9c65fbb85b23aedfcc2f16f195ae5b85fb7610fed2b86c906a560'),
    # betti: F6, 2 shear(s)
    (['betti', '--algebra', '(34,35+45,0,0,-13-14,-23-24)'], 0, 'b145d28e1b9d02bbd48fb0922d41030b0469a524aa11236b2a6e3ce0d8be2ff3'),
    # betti: F7, 2 shear(s)
    (['betti', '--algebra', '(24+26,0,-12,2*24+4*26-27,23,-24-2*26+27,0)'], 0, '59e1e739bb583a4ff6e4f10c6885d15557100c6b99140388f32d75f149b8b641'),
    # betti: H3+F4, 2 shear(s)
    (['betti', '--algebra', '(0,0,56,-12,0,0,24)'], 0, 'bd42ae4bcaee5933eb82b9c4aa1075a1354746a0cdc42bab030cc46dfcd49ac3'),
    # betti: F8, 1 shear(s)
    (['betti', '--algebra', '(0,-37,78,-67,-47,-17,0,-57)'], 0, '6a82f5a575aaa5dbdeef30f235728ea4adf2b09bea889254b37ab56ff9fae5e1'),
    # betti: H5+H3, 1 shear(s)
    (['betti', '--algebra', '(0,0,0,0,27,0,0,14+36)'], 0, '174b401feeaab80aa7b847202dd53f30678db3049bad8d4d3d76643544bf3c9c'),
    # betti: H7+R, 1 shear(s)
    (['betti', '--algebra', '(18+38+47+56,0,-18-38-47-56,0,0,0,0,0)'], 0, '9f96e2e08cd94d7c2bca6511d0b2d5e1380eac338fc6a06b60111d4f70d412ae'),
    # betti: H3+F5, 1 shear(s)
    (['betti', '--algebra', '(0,13,0,0,48,45+47,0,47)'], 0, 'fd86b67ae95b18e2fd92987c9b87a1e841899dbbe00f56c6b9a5a39cd6d247e0'),
    # betti: H9, 1 shear(s)
    (['betti', '--algebra', '(27-35+49+68+89,0,0,0,0,0,0,0,0)'], 0, 'e10ad4ac93b136290962f83ff514934349e29c54b23320d415d070feb2569003'),
    # betti: H3+H3+H3, 1 shear(s)
    (['betti', '--algebra', '(0,19,78,-56,0,0,0,0,0)'], 0, '4faf123220d020df7b9695a32d08b3bc155973b3848389ab05614b2d1f5e153c'),
    # betti: F9, 1 shear(s)
    (['betti', '--algebra', '(0,-17,-27,-27-67,-37,17+78,0,-57,-47)'], 0, '717c481292eecd118640c4439756da975f0c356642b8f0db68471cb836d267b7'),
    # betti: F9, 3 shear(s)
    (['betti', '--algebra', '(-23-29,0,-36+69,-13-19,-23-29+34-35-36-49+59+69,35+36-59-69,39,37-79,36-69)'], 0, '733b03d64772d3f759c791ecff040350d3e61f209de5894bbabd670f2010397f'),
    # betti: F5+F4, 1 shear(s)
    (['betti', '--algebra', '(0,14-45,0,0,0,39,12-25,35,38)'], 0, 'ceaa1d1c1f90def2b54b3024b46f764a2d00166493fc700d24155981a47e0b30'),
    # betti: F5+F4, 3 shear(s)
    (['betti', '--algebra', '(0,-47,15,-49+79,0,0,-49+79,13,14-17-46-67)'], 0, 'd59c3e70b3490fdffd3337e8d27dd8bba8abe7eb4380bda27da7cb68cd85b73e'),
    # betti: rational structure constants
    (['betti', '--algebra', '(0,0,1/2*12,-3/4*13,2/3*14+5/7*23)'], 0, 'dd20f44763fddfbeb9320fe9ac0948b49554c1db8a775c64adbcb58563e0d4a0'),
    # betti: H3+F8 in JSON, dim 11 (the largest accepted), 1 shear
    (['betti', '--algebra', '{"dim":11,"d":{"1":[[-1,6,7],[-1,6,8]],"2":[[-1,5,7],[-1,5,8]],"6":[[1,7,9],[1,8,9]],"7":[[1,7,11],[1,8,11]],"8":[[-1,7,11],[-1,8,11]],"9":[[-1,2,7],[-1,2,8]],"10":[[1,3,4]],"11":[[-1,1,7],[-1,1,8]]}}'], 0, '748900634df714638d0f40ef0ea1e4f94237bb9fb40f6a437d9dd5420f861c92'),
    # betti: input error, Jacobi fails
    (['betti', '--algebra', '(0,0,12,13,24)'], 2, '05fc39eae80ef3c29ba57380e679eb40a88e181de7f3d332b89cf27a4de28454'),
    # moduli-kernel: N = 4
    (['moduli-kernel', '--N', '4'], 0, '428b50f6ba76fd6397b4255f9b2377e0d130b35eba2cd194d8aa16dc53bd5d23'),
    # moduli-kernel: N = 6
    (['moduli-kernel', '--N', '6'], 0, '9ff722fd922b1fc90ad22b6bd69c8725b2e5938f8fe4ad9c233554f04b7cb938'),
    # moduli-kernel: N = 64
    (['moduli-kernel', '--N', '64'], 0, '5dd9f9fa97f84105a496750920e94b88f391e6bd2ad35f9c00bb47e7727cc170'),
    # moduli-kernel: N = 130
    (['moduli-kernel', '--N', '130'], 0, 'ed4450266f270ab87aab90f0693a2bfcef033af9b9af67cbf2dbf194dca10199'),
    # moduli-kernel: input error, N = 7
    (['moduli-kernel', '--N', '7'], 2, 'efa605814053a39bf8382224afa4f209fddfd4d04fe583b6cbab0225942e0eff'),
    # moduli-kernel: input error, N = 2
    (['moduli-kernel', '--N', '2'], 2, 'a3bbc5fbc43e28c024ad8afa18c7d2e542c501d017a41651dc83d9628d29458a'),
)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=range(len(GOLDEN)))
def test_rank_report_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
