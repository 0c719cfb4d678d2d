"""Golden reports: `opconvex verify --json` output pinned byte for byte.

Each case pins the exit code and the sha256 of stdout for one command line
over a grid of seeds, dimensions, theorem tags and atoms, including the
runs that exit 2 on a configuration error and a negative control whose
report carries a FAIL witness. Further cases cover campaigns of one trial
and of several batches of trials, and configurations whose draws are
rejected and redrawn, one of them until the redraw budget runs out. Any change to a verdict, the seed rule or
a witness's contents changes a hash.

The hashes were taken with numpy 2.4.6; other numpy builds may round
differently in the last bit, so the test skips under them.
"""
import contextlib
import hashlib
import io

import numpy as np
import pytest

from opconvex.cli import main

GOLDEN_NUMPY = "2.4.6"


def _grid():
    for seed in (0, 7):
        for dim, dim_m in ((2, 2), (3, 3), (5, 3)):
            base = ["verify", "--seed", str(seed), "--dim", str(dim),
                    "--dim-m", str(dim_m), "--trials", "6", "--json"]
            yield base + ["--theorem", "all"]
            for atom in ("neg_log", "square"):
                for tag in ("hp", "hp-contractive", "perspective",
                            "classical"):
                    yield base + ["--theorem", tag, "--atom", atom]
    # fails at trial 1913, so the pinned set includes a FAIL witness
    yield ["verify", "--theorem", "hp", "--atom", "quartic",
           "--negative-control", "--dim", "2", "--trials", "2000",
           "--seed", "7", "--json"]
    # campaigns longer than one batch of trials, and a batch of one
    yield ["verify", "--theorem", "all", "--dim", "2", "--trials", "600",
           "--seed", "0", "--json"]
    yield ["verify", "--theorem", "all", "--trials", "1", "--seed", "3",
           "--json"]
    yield ["verify", "--theorem", "hp", "--atom", "quartic", "--trials", "1",
           "--json"]
    # a floor of 2 makes h(R) = R^0.5 fall below it on part of the draws,
    # so marechal trials are redrawn (the worst witness at seed 0 has
    # redraw 4); a floor of 9 rejects every draw and exhausts the budget
    yield ["verify", "--theorem", "marechal", "--floor", "2", "--dim", "3",
           "--trials", "40", "--json"]
    yield ["verify", "--theorem", "all", "--floor", "2", "--dim", "3",
           "--trials", "40", "--seed", "5", "--json"]
    yield ["verify", "--theorem", "marechal", "--floor", "9", "--trials", "3",
           "--json"]


GOLDEN = {
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem all':
        (0, '580f3ee69fbb1238fcf178ae335381ed4dfd74a22d325a78758c2d0fba1af2bf'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom neg_log':
        (0, '301437a06cce30882f41b9fb3cbda178325e96425a516830da0851812696080f'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom neg_log':
        (0, '651744239fa41672e7e59bc885980b05938fa791a788979a6dba3aa1246dd7cd'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom neg_log':
        (0, 'c05b134ff87136af382cbb76ef56433fc0d4666643d4ac6d599209f797ec3f38'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom square':
        (0, '422003985b13d50e2a5497671cf07c2c8a4409c1589af3208f3baa25499f6e66'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom square':
        (0, '020b06b5c3201a87bd7c6f2e4945e9a47fbc1a37b07cedc2e142ba360144d23e'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom square':
        (0, '568f02c86a1e3c6731527786e11469e8fc6b60291269eb04a9e545af8191ace2'),
    'verify --seed 0 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom square':
        (0, 'c604f76547f215bac3cca3aec3db465810b3a7c5618b615034c1b11866e4c3ce'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem all':
        (0, 'ac33a858fb1bda1e086020c2998c83f650a9d259a03f5ec3d8a035f9b535b785'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log':
        (0, '2f1eb1e159252acc9f1dce3a20d8ef7efd9fbdc47a9abcaedbcf38b7f1560901'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log':
        (0, 'd7f9eacb86fe01b4ba6002f4c11cd7578007ff1e8a42f4444c1d670977f94711'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log':
        (0, '1e8b90b516e8cca4aae9dc18d1076ac31916d97a2df853ca4b2266e3d0fd5f14'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom square':
        (0, 'c3c56a7e6525fd1c56333d336ee0afb9927d6aac225cb859c8bdf6c4add6b301'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square':
        (0, '84e2f0774908b153c3d4500dabfa336b61f585a726282e1e2ada497beb6dbcc9'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom square':
        (0, 'f6185981a50937a15b4b3c74c27fc1d286b0bc1c53d5ee9e1a1b20532c1695c1'),
    'verify --seed 0 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom square':
        (0, 'b5d012dc1ef86fac10d4edaecd5f2fe28e4f4902dd6f253eaeffe79dd8659f55'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem all':
        (0, '3f4c3cf4d743a170ca8bf0ed1567f446b9c0c5fed67f697c6b5c42353f1a060c'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log':
        (0, 'd20b227bd43a9d77fb87b5293a5498d6a65f09743b5587c80a3c663947caad79'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log':
        (0, '2ca34d9b12d740913262e248b7bff57a5922797d770945fc907c518504f45c39'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log':
        (0, 'b319dfa5b1465e9ef50bde0bfd6af60f91ad9b49e399769ca53010d795f292fe'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom square':
        (0, 'c2900f4c0986e7f556223dcfc52705cba9f9bdf6df22d16996e2fb7b51d23db2'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square':
        (0, 'dab3b6244c6a99e8b20eab3cece96db3760822479352cb15d6ac687b41450061'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom square':
        (0, 'aa144369e7d68a3b67d34c4832f252648b86e733f7b26380c2f7e63fb4e23759'),
    'verify --seed 0 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom square':
        (0, '0271af80825ce0abed8cd4ec22a18e3a95739d2fe681fc8278a5bbd6db15098d'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem all':
        (0, '003f53788048404b06767bea6c581aff1e1248793a126485d0e5cb6db465834f'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom neg_log':
        (0, '725bb40cccbcd5313f1cca52489582f09cd1da25a9b40faa854680310814ac8e'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom neg_log':
        (0, 'd2ec47bcd70c138cf204fb1c6223ac4cfd7d32c2d921898d7ae4364bbd50d987'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom neg_log':
        (0, 'a2a605cef76f6369e4c5a24b47be74b94bfe09e91b2fe4d18780315cb7bead1b'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp --atom square':
        (0, '2c05b1a999b28ae3891d25574c1b57e91eb28222b01849eeafb4081c94a0e061'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem hp-contractive --atom square':
        (0, '16ae9942a146d899e9e945943e0aaa6666b5b58ea9bdce1f77e9d0341c74841e'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem perspective --atom square':
        (0, 'eede80d6d3b7d893c4d6bd11b2efcf4eff77494880ce1a2bc2bf99697057375b'),
    'verify --seed 7 --dim 2 --dim-m 2 --trials 6 --json --theorem classical --atom square':
        (0, 'b49f226514ecfbfa223b5b3ee86617633fc4acfddd1b402379c1a30bade65590'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem all':
        (0, 'b02e31df4ad750045a5ba4c62275da51dda0e78d09942fa68d2bfab76844a80a'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log':
        (0, 'b87ba32116577bb8c0cc370726ee080456b0d607629d0fb15d92fca4b6a89895'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log':
        (0, 'b6ea4dd1f0905de4f629418554442eccd480caaf7f03d9fa78c2c647d6600f3d'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log':
        (0, 'a3b18a35350540816d912a98995e2c7ea56b9758d6b58d1b9159bf308200fd0f'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp --atom square':
        (0, 'c6824b41420b613c3709503e41d709bd3be4f16819f34250b4c40dcc0f5c49cf'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square':
        (0, '3f6c6dd887f1aba53c7586dc02b49471e5f51e23701a2b0533564c9c3cc36f7a'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem perspective --atom square':
        (0, '5d43f77ec0dcba4202d4f538b62a75569f8bbef401fd48a4e7662c19847288de'),
    'verify --seed 7 --dim 3 --dim-m 3 --trials 6 --json --theorem classical --atom square':
        (0, 'dc10e2b5b4c43225e53b88cc3b85bd83acf0adf75ea4a0b9a6967f03763d3e1a'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem all':
        (0, '1c25da2b5fc1a093857316a097d4240bcd7e2c08ffb60cd0834ad79d12d9b63d'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom neg_log':
        (0, 'd8df866587bd1ab402b16dfa6b5e9d60f84cf395b812903165ea01df9735d227'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom neg_log':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom neg_log':
        (0, '38204e029dafe509904df1ea0537bc624d55dbc85c1c94397470ccaf7d08cee4'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom neg_log':
        (0, '70efee0f78345026ba14517834a3c11f2640052407e96b8f0da9eecb8944b193'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp --atom square':
        (0, 'cabdec9ce82c318c95f9429d38e1885da561378243ea0764dc2765afe83a26aa'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem hp-contractive --atom square':
        (0, '8733a02c858c35c10c660b0404bbe5edc343a9c1b4016616cf2e7adccc471c90'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem perspective --atom square':
        (0, '117ec05856f16acfb0a18d4ebbb752f69aa25c83037f3b7ff85e69f7b71bfcb9'),
    'verify --seed 7 --dim 5 --dim-m 3 --trials 6 --json --theorem classical --atom square':
        (0, '172573fe7f8f2628a45cf395a79a6d91ac9cb8e446aad195d08936c29de5d1c0'),
    'verify --theorem hp --atom quartic --negative-control --dim 2 --trials 2000 --seed 7 --json':
        (0, '258017c04bfea3e77318262b37baad036a8cd24111ced43a3651eba248b47f56'),
    'verify --theorem all --dim 2 --trials 600 --seed 0 --json':
        (0, '3af2792533453e3bac131760a14b2a9053a82389b0d55028d29d3d0cade5e2b2'),
    'verify --theorem all --trials 1 --seed 3 --json':
        (0, '9635f0c8692b133ff5bc1317ec9fb737aa5442abad5e0ec7cdee44f8811b1303'),
    'verify --theorem hp --atom quartic --trials 1 --json':
        (0, 'fe6ad402d68ed5d7554b0662bfb5e9810c78a5ec1489a70b3bb3c5bf4f6662c8'),
    'verify --theorem marechal --floor 2 --dim 3 --trials 40 --json':
        (0, 'd36a3200b7df0c39fa76fedb3830e72fdba8964bd6307b54b2c5231c6aa42ca7'),
    'verify --theorem all --floor 2 --dim 3 --trials 40 --seed 5 --json':
        (0, '28c872c130dba19c8c696e4638cb53bbdd9f0bac0007c38dd5c4c7e13b3a149a'),
    'verify --theorem marechal --floor 9 --trials 3 --json':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"golden hashes were taken with numpy "
                           f"{GOLDEN_NUMPY}")
@pytest.mark.parametrize("argv", [" ".join(a) for a in _grid()])
def test_report_matches_golden_hash(argv):
    assert _run(argv.split()) == GOLDEN[argv]
