"""Golden digests of the check-command and classify reports.

Each entry is an argv, its exit code and the sha256 of its stdout, recorded
from the structure-check code that the bracket-table rewrite replaced, with
the sign of the J[JX, Y] term of the Nijenhuis tensor corrected. Exact
arithmetic makes every report a pure function of its argv, so a changed
digest means a changed report byte.

The entries cover check-contact, check-sasakian, check-ccy, check-rccy
(r = 1 pass and fail, r = 2 pass and each failing clause),
check-hypo, legendrian and obstruction, with every failing clause that a
report can reach. All algebras are nilpotent except su(2) `(23,-13,12)`: a
Sasakian nilpotent algebra is Heisenberg, whose Reeb field is central, so
there `iota_R epsilon = 0` already forces `L_R epsilon = 0` and the
Lie-derivative branch of ccy.basic needs a non-nilpotent algebra. Two
entries differ from the uncorrected code: su(2) (it failed
sasakian.nijenhuis there) and the Sasakian failure list on
`(0,0,0,13,12+34)`, whose Nijenhuis values carried the wrong sign.

The two r = 1 check-rccy entries were re-recorded when check-rccy stopped
handing r = 1 to check-ccy: one clause chain now serves every r (equal
differentials, volume, Reeb family, calibration, for r = 1 the Sasakian
clause, then epsilon), so an r = 1 report lists its passing clauses instead
of one "ccy.delegated" clause. Exit codes and failing clauses are unchanged.
check-contact decides the volume condition by the rank of the Reeb system,
with the same verdicts, messages and witnesses. check-sasakian raises on a
Nijenhuis failure and the command renders the same failure list.

Two implied conditions have no clause, so no entry: J-invariance of g_J on
the contact distribution xi (for u, v in xi, g_J(Ju, Jv) = kappa(Ju, J^2 v)
= -kappa(Ju, v) = g_J(v, u) once calibrated.J_square and
calibrated.symmetric hold), and epsilon ^ kappa = 0 in ccy.type (J preserves
xi, so once the iota_(J X) test passes epsilon ^ kappa is a horizontal
(n+1,1)-form, which is zero).

The classify entries were recorded from the code that still expanded the
contact-existence polynomial and the filter's quadratic with a separate
polynomial-coefficient exterior algebra. They cover the default catalog at
several seeds and sample counts, `--samples 0`, and a JSON catalog of 3-,
5- and 7-dimensional algebras, some in a sheared basis, that reaches
Inconclusive filter verdicts and a non-contact algebra. The two catalog
entries were re-recorded when the filter was restricted to dimension 5 (its
quadratic is the top coefficient of a 5-form, so it vanished identically in
dimensions 3 and 7 and reported Obstructed on h3 and h7, which carry
structures); 3- and 7-dimensional entries now carry no filter samples, and
every other byte of those reports is unchanged.
"""

import hashlib

import pytest

from nilgeo.cli import main

# Dimension 3: Heisenberg, su(2), abelian. Dimension 5: (0,0,0,12,13+24) and
# (0,0,0,0,12+34) in the frame I + E_12 - E_35 + 2 E_24 (columns). Dimension 7: Heisenberg,
# once as is and once in the frame I + E_12 - E_35 + 2 E_67, and the filiform
# (0,0,12,13,14+23,15+24,16+25) in that frame.
CATALOG_3_5_7 = (
    '[{"name":"h3","spec":"(0,0,12)","notes":"Heisenberg, dimension 3"},'
    '{"name":"su2","spec":"(23,-13,12)"},'
    '{"name":"abelian3","spec":"(0,0,0)","notes":"no invariant contact form"},'
    '{"name":"n5_step3_sheared","spec":"(2*12+4*14+4*24,-2*12-4*14-4*24,13-15+23+24-25,12+2*14+2*24,13-15+23+24-25)"},'
    '{"name":"n5_heis_sheared","spec":"(0,0,12+2*14+2*24+34+45,0,12+2*14+2*24+34+45)"},'
    '{"name":"h7","spec":"(0,0,0,0,0,0,12+34+56)"},'
    '{"name":"h7_sheared","spec":"(0,0,0,0,0,-2*12-2*34-2*45-2*56-4*57,12+34+45+56+2*57)","notes":"h7 in a sheared basis"},'
    '{"name":"f7_sheared","spec":"(0,0,12+14+23+24-25,13-15+23-25,14+23+24-25,15-2*16-4*17+24-25-2*26-4*27,16+2*17+25+26+2*27)"}]'
)

GOLDEN = (
    # check-contact: pass
    (['check-contact', '--algebra', '(0,0,12)', '--alpha', '2*e3'], 0, '0454326fc8cb4a2c3eef9ddbbf99eb94169e36b9c7fdff803f3ec37607bfd375'),
    # check-contact: pass
    (['check-contact', '--algebra', '(0,0,0,0,12+34)', '--alpha', 'e1 + 2*e5'], 0, '4d1576dee1cc9d045c578ab7732538374a8859bd1f334917dbbf5c733299e511'),
    # check-contact: pass
    (['check-contact', '--algebra', '(0,0,0,0,0,0,12+34+56)', '--alpha', '2*e7'], 0, '392fd394db2f73aec84031adc9755db6225c03addb69f8d744156c0d86a890e7'),
    # check-contact: pass
    (['check-contact', '--algebra', '(0,0,12,13,14+23)', '--alpha', 'e5 - 1/2*e3'], 0, '753212e3ff41fa32d4a204b2aff525aa15f8648bfb3ebdbce573624d530333b5'),
    # check-contact: contact.volume
    (['check-contact', '--algebra', '(0,0,12)', '--alpha', 'e1'], 1, '9ef4e5ce75362eac38a2ec1a4ea681acd3ec4da4a00b26c3410616b5c1410e8c'),
    # check-sasakian: pass
    (['check-sasakian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)'], 0, '4b553ddcd22a3a25b836337a5fd576b17135bc19c676c52ee45c07f40ad2deb3'),
    # check-sasakian: pass
    (['check-sasakian', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)'], 0, '13303628d0b7a1fb8efccb711f42329eef7e789a95abb557f878b1c0e1b89f02'),
    # check-sasakian: sasakian; changed by the Nijenhuis sign fix
    (['check-sasakian', '--algebra', '(0,0,0,13,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)'], 1, '2523bf72ee4e854875de444d16031e50ed9baa5e6d233b3b9ae65aa7a26ead3a'),
    # check-sasakian: calibrated.J_reeb
    (['check-sasakian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'matrix:[[0,-1,0],[1,0,0],[0,0,1]]'], 1, '1c3a162a7814156dfe8707ee4e2b4c7aa583513fe15c09afd5b6c17904dae00f'),
    # check-sasakian: calibrated.J_square
    (['check-sasakian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'matrix:[[0,-2,0],[1,0,0],[0,0,0]]'], 1, '922231cd199116a8b7f2bcde10aa2b607d8c63b32f230c65a481f8e4100d39e0'),
    # check-sasakian: calibrated.symmetric
    (['check-sasakian', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'matrix:[[0,-1,0,0,0],[1,0,0,0,0],[0,1,0,-1,0],[1,0,1,0,0],[0,0,0,0,0]]'], 1, '77cb36cd652d04ca4b2c566ee0c0d18f8294935a7573d868e6c7801bdb988cc5'),
    # check-sasakian: calibrated.positive
    (['check-sasakian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(2,1)'], 1, '72d7e8f984f89041453f0568039b47d338877ce338f2dcce85374ac899cea116'),
    # check-sasakian: calibrated.positive
    (['check-sasakian', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,3),(2,4)'], 1, '569ddd135ecba3dcae6a380cdce15e4c940cf47ab8794edf40967339cb963963'),
    # check-sasakian: contact.volume
    (['check-sasakian', '--algebra', '(0,0,12)', '--alpha', 'e1', '--J', 'pairs:(1,2)'], 1, '995b7d36f7105dddcbc40d024f664d97babeca1f5f96c21115ab1f867663f789'),
    # check-ccy: pass
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 0, '8e9084509eca10d1a21f42b3f2125943913a7866524ffc0815c884f3a528c5f7'),
    # check-ccy: pass
    (['check-ccy', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(3/5+4/5*i)*(e1+i*e2)^(e3+i*e4)'], 0, '21b49754e1ad2cba40521351b0f5be5f2802d946c27ba0e34c2669ac212ce391'),
    # check-ccy: pass
    (['check-ccy', '--algebra', '(0,0,0,0,0,0,12+34+56)', '--alpha', '2*e7', '--J', 'pairs:(1,2),(3,4),(5,6)', '--epsilon', '(e1+i*e2)^(e3+i*e4)^(e5+i*e6)'], 0, 'ee30ad9f30381e8c5917a36495bbf33a1f879f0132ddf32e4b69250f2b6c5b5e'),
    # check-ccy: pass
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--strict-def31'], 0, 'd16129e6218f91fc42af864915a034b0dccc08098a12d9536490f1f82f043db4'),
    # check-ccy: ccy.normalization
    (['check-ccy', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(e1+i*e2)^(e3+i*e4)', '--strict-def31'], 1, '07449627e5017deec286bc82dce7557544df5a1792d8ce1ad2d882d4d6a13d29'),
    # check-ccy: ccy.normalization
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', '2*e1 + 2*i*e2'], 1, '006891345672a4ca8be7acf0eb8b03e49542a189d7e1425a59d1d4a130fa2b22'),
    # check-ccy: ccy.basic
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e3'], 1, '93cc959cb4dc1b1feb18706d2b4d8c51bf886cc8c0cc2b160b66d9c6575a05c1'),
    # check-ccy: ccy.type
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 - i*e2'], 1, 'f6394e09c84e8bed675a8fa1f4fd94710f0fb30c7578468f1519dc62f81434fc'),
    # check-ccy: ccy.basic; changed by the Nijenhuis sign fix
    (['check-ccy', '--algebra', '(23,-13,12)', '--alpha', 'e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 1, '2cd9113b533b27d5884a265b8f12ad7d20389250d0ec248ca874e9b7f3b11744'),
    # check-ccy: sasakian.nijenhuis
    (['check-ccy', '--algebra', '(0,0,0,13,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(e1+i*e2)^(e3+i*e4)'], 1, 'e786e4d7840e71d80e1fd57070834f6acaff87f71b3c164b8add95e8a6c3dc9c'),
    # check-ccy: calibrated.positive
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(2,1)', '--epsilon', 'e1 + i*e2'], 1, '74a0d08425e871158c03bd19db5e7daef215a8dba3c7844365cef01aa01f87ec'),
    # check-ccy: contact.volume
    (['check-ccy', '--algebra', '(0,0,12)', '--alpha', 'e1', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 1, '7293cf8a6f053204f3de65df2b86af31bf63066ccf3438992fff916f67ae27a8'),
    # check-rccy: pass; r = 1 lists its clauses
    (['check-rccy', '--algebra', '(0,0,12)', '--alphas', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 0, 'db9d781e70f8d94bce7460fbb52af2497d3c34ffdcc66e861f8e1075c4a853ae'),
    # check-rccy: ccy.normalization; r = 1 lists its clauses
    (['check-rccy', '--algebra', '(0,0,12)', '--alphas', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', '2*e1 + 2*i*e2'], 1, 'db4748d8fdc2cc2f74dcf6e76daff1f4c79a79d7bc9c0d8f23f85e9811199e28'),
    # check-rccy: pass
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 0, '337066911ca758387abf62462e151f365850275389b99bc29c5102e3fb14f030'),
    # check-rccy: rccy.equal_differentials
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e4', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 1, '3cce289f6cf810ae7d72f5e2813f91a7491f7efadad5aaa9770ba1f6181d127d'),
    # check-rccy: rccy.volume
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2'], 1, '30ad0c82e0776ea4a098c8d5f4f556df369044661e4820b36fae1288293f51de'),
    # check-rccy: calibrated.positive
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(2,1)', '--epsilon', 'e1 + i*e2'], 1, 'bef3ee3352977f648c447c364d40be6e1368f73833979f241f82060f51baf491'),
    # check-rccy: ccy.basic
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e4'], 1, '92d7e10cb453d55ca0e439c6333c3ba5f1665b96937fc0e3475108e69fd2b50f'),
    # check-rccy: ccy.type
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(1,2)', '--epsilon', 'e1 - i*e2'], 1, 'f0f9cdc7757a800780b4067fd551e0107cd05de981ca81f4f42503499835148f'),
    # check-rccy: ccy.normalization
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(1,2)', '--epsilon', '2*e1 + 2*i*e2'], 1, '6ff638af682eff2d9d986eac1401145183cec89cb5514b80a12aca69cf86fb1c'),
    # check-rccy: pass
    (['check-rccy', '--algebra', '(0,0,12,0)', '--alphas', '2*e3; 2*e3 + 2*e4', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--strict-def31'], 0, '8f60f4e008788da6b0ccda323d8c57bca0bd6e9663981f3b062e3c5ecfd90ecb'),
    # check-rccy: ccy.closed
    (['check-rccy', '--algebra', '(0,0,0,13,12+34,12+34)', '--alphas', 'e5; e6', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(e1+i*e2)^(e3+i*e4)'], 1, '939d81bf3556e56e5b396d4ab7e50bfd56cdaebac824d8f189d0f5e40bdf56d8'),
    # check-hypo: pass
    (['check-hypo', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--omega1', 'e1^e2 + e3^e4', '--omega2', 'e1^e3 - e2^e4', '--omega3', 'e1^e4 + e2^e3'], 0, '257081682cf9cafd7cd813d38a853ae15813b70a788f0ecceef6890305e325e4'),
    # check-hypo: hypo.3.closedness
    (['check-hypo', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--omega1', 'e1^e3 - e2^e4', '--omega2', 'e1^e2 + e3^e4', '--omega3', 'e1^e4 + e2^e3'], 1, '5795b3c4df919d1b17011dfe6ce1d3a5948c60b27c7bd1a93032286d9d753369'),
    # check-hypo: hypo.1.products, hypo.2.compatibility, hypo.3.closedness
    (['check-hypo', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--omega1', 'e1^e2 + e3^e4', '--omega2', 'e1^e2 + e3^e4', '--omega3', 'e1^e4 + e2^e3'], 1, 'ea02f2333e1b9dec2a908cd125ce7e8b6c5e585b10a014c5bca9a54ffc565359'),
    # legendrian: pass
    (['legendrian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--span', 'X1'], 0, '1e66314bffa1d35586fa365f57a4f8b5f11ca08e6c073ef2198460e61a5acfba'),
    # legendrian: special_legendrian
    (['legendrian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--span', 'X2'], 1, '8acb244487b06c4ff064c818e17beeb5307449d0127f7a3a7e939c1e9685c618'),
    # legendrian: special_legendrian
    (['legendrian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--span', 'X3'], 1, '459c41940e1d617e46d93fb3fc70b60f73c6405d573b2fe87becede157ae5515'),
    # legendrian: pass
    (['legendrian', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(e1+i*e2)^(e3+i*e4)', '--span', 'X1;X3'], 0, '0e91b69e92808cc340654033c864cdba0ad223571fcf9ebd00b5f05d20fc3ede'),
    # legendrian: ccy.normalization
    (['legendrian', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', '2*e1 + 2*i*e2', '--span', 'X1'], 1, '5b7f6812f0761e03fd3f3674abba04619f94a9549d65652776f1e32f4e39cd99'),
    # obstruction: pass
    (['obstruction', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(1,2)', '--epsilon', 'e1 + i*e2', '--span', 'X1', '--rotations', 'default'], 0, '2d9fc0f7f13ca30e86ea6befd5ea9efd25e80074f0056c2524c93e2dd5f896d1'),
    # obstruction: pass
    (['obstruction', '--algebra', '(0,0,0,0,12+34)', '--alpha', '2*e5', '--J', 'pairs:(1,2),(3,4)', '--epsilon', '(e1+i*e2)^(e3+i*e4)', '--span', 'X1;X3', '--rotations', '0,1,0;1,3/5,4/5'], 0, 'b864f9422272787aab5a9e95d15f481cd141a7b675ab8c2b2ca47ec148a56a30'),
    # obstruction: calibrated.positive
    (['obstruction', '--algebra', '(0,0,12)', '--alpha', '2*e3', '--J', 'pairs:(2,1)', '--epsilon', 'e1 + i*e2', '--span', 'X1'], 1, 'f728a0791252a153f70f975ca6ebe7d4ce27f369473a39d7d88a24c4dc22f7e8'),
    # classify: default catalog
    (['classify', '--seed', '0'], 0, 'b61f0f2dd40b8483029099b7b3c1341f9fcdadd0ad1e57e8889bd340e9d5a09a'),
    # classify: default catalog
    (['classify', '--seed', '1', '--samples', '5'], 0, 'b5e366c8bf3e856b4422d4f2c4ecbf8f7e6c679eea72d3374f29960c1ef86b1e'),
    # classify: default catalog
    (['classify', '--seed', '7', '--samples', '12'], 0, 'ec9505ec8862e5726b94260c3957038d46c0bcb095eccfc99a52fe82f8b29d92'),
    # classify: default catalog, fixed samples only
    (['classify', '--seed', '3', '--samples', '0'], 0, '8c96c5f7a03c22b65929a95efe065e833d058c7957e754a04d2fdb26a7b412fa'),
    # classify: dimension 3, 5 and 7 catalog; no filter samples outside dimension 5
    (['classify', '--seed', '0', '--catalog', CATALOG_3_5_7], 0, '12d90397c6f81571444a3fd8d09d961aedba543fb7dfb6a9055729d5c04824b4'),
    # classify: dimension 3, 5 and 7 catalog; no filter samples outside dimension 5
    (['classify', '--seed', '2', '--samples', '4', '--catalog', CATALOG_3_5_7], 0, 'b7604701de7060ac2d2983c7886926bd22a66b3bde7a4a362ff907a770be608f'),
)


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=range(len(GOLDEN)))
def test_check_report_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
