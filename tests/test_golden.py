"""Golden outputs of the CLI: sha256 digests of exit code, stdout and
stderr over a fixed grid of `reduce`, `history encode`, `solve`,
`verify`, `merge`, `kim`, `argue` and `corpus-test` calls.

The `kim` and `corpus-test` digests were recorded before the
variable-grid refactor of `reduction`; the `solve`, `verify`, `merge` and
`argue` ones before decode stopped re-checking the model and
`from_dimacs` stopped range-checking literals itself. The `reduce`
digests and the 11 `history encode` ones that write DIMACS were
re-recorded when `to_dimacs` moved from a `c clause <n> group <G>` line
per clause to one `c group <G> clauses <first>-<last>` line per group;
the 13 `history encode` cases with no witness kept theirs. They pin
DIMACS, JSON and error output byte for byte; the work directory's path
reads `{dir}` in the output. A digest changes only with an intended,
documented change of output.

`DIMACS_GOLDEN` pins, byte for byte, the labeled DIMACS text of one
reduction of each of the benchmark's nine tableau-deep (fixture, T)
classes, up to m_parity at T=48, well past the CLI grid's T=4; it was
recorded before the reduction and the writer were rebuilt from rows and
token streams.
"""

import contextlib
import hashlib
import io

import pytest

from tmsatlab.cli import main
from tmsatlab.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import to_dimacs

INPUTS = ("", "1", "11")
BOUNDS = (2, 4)
PARTS = ("all", "input", "run")
KIM_BASES = ("m_accept1", "m_parity", "m_nd")
# Two entries of the same machine under different names, plus m_parity.
KIM_LIBRARY = (("e0_accept1", "m_accept1", "1"),
               ("e1_accept1", "m_accept1", "10"),
               ("e2_parity", "m_parity", "11"))
KIM_BOUND = 4
SOLVE_INPUTS = ("1", "11")
# One DIMACS file per `DimacsError` message, each with a single fault.
DIMACS_FAULTS = {
    "clause-before-header": "1 0\np cnf 1 1\n",
    "duplicate-header": "p cnf 1 1\np cnf 1 1\n1 0\n",
    "malformed-header": "p dnf 1 1\n1 0\n",
    "negative-count": "p cnf -1 0\n",
    "bad-literal": "p cnf 2 1\n1 x 0\n",
    "out-of-range": "c labels\np cnf 2 2\n1 -2 0\n-3 0\n",
    "empty-clause": "p cnf 2 2\n1 0\n0\n",
    "missing-terminating-0": "p cnf 2 1\n1 -2\n",
    "count-mismatch": "p cnf 2 3\n1 0\n-2 0\n",
    "missing-header": "c no header\n",
}


def _cases():
    cases = {}
    for name in FIXTURE_NAMES:
        for y in INPUTS:
            for bound in BOUNDS:
                machine = ["-m", f"{{dir}}/{name}.tm", "-i", y, "-T", str(bound)]
                for part in PARTS:
                    cases[f"reduce/{name}/y={y}/T={bound}/{part}"] = \
                        ["reduce"] + machine + ["--part", part]
                cases[f"history-encode/{name}/y={y}/T={bound}"] = \
                    ["history", "encode"] + machine
        for y in SOLVE_INPUTS:
            for bound in BOUNDS:
                cases[f"solve/{name}/y={y}/T={bound}"] = \
                    ["solve", f"{{dir}}/{name}-{y}-{bound}.cnf"]
                cases[f"verify/{name}/y={y}/T={bound}"] = \
                    ["verify", "-m", f"{{dir}}/{name}.tm", "-i", y, "-T", str(bound)]
        for other in FIXTURE_NAMES:
            if other != name:
                cases[f"merge/{name}/{other}"] = \
                    ["merge", "-a", f"{{dir}}/{name}.tm", "-b", f"{{dir}}/{other}.tm"]
    for fault in DIMACS_FAULTS:
        cases[f"solve/fault/{fault}"] = ["solve", f"{{dir}}/{fault}.cnf"]
    for base in KIM_BASES:
        common = ["--library", "{dir}/lib", "--base", f"{{dir}}/{base}.tm",
                  "-T", str(KIM_BOUND)]
        for fmt in ("text", "json"):
            flag = ["--json"] if fmt == "json" else []
            cases[f"kim-build/{base}/{fmt}"] = ["kim", "build"] + common + flag
            for action in ("run", "metrics"):
                for y in INPUTS:
                    cases[f"kim-{action}/{base}/y={y}/{fmt}"] = \
                        ["kim", action] + common + ["-i", y] + flag
    cases["argue/text"] = ["argue"]
    cases["argue/json"] = ["argue", "--json"]
    cases["corpus-test"] = ["corpus-test"]
    return cases


CASES = _cases()

GOLDEN = {
    "argue/json":
        "f7b7ea5c2b6cf1520ee4235efecb5752f1f2dae40c11a27e38888150720707f7",
    "argue/text":
        "b3f700dd5b349fde8ab4eac6dc746d3a756297220ff1c721cd4f449d36897857",
    "corpus-test":
        "14376b0b9e4f7a923bf2bf22b5ecab7b533879d8e9e7c5a98eee110a410ae8c7",
    "history-encode/m_accept1/y=/T=2":
        "0bcb31cd1fbb1ea9733c11eabd9602ad430e076517b4c60da631a689c5c20fca",
    "history-encode/m_accept1/y=/T=4":
        "5011192d9dd2e46fe356667fc641b823a98e1282e816081d41c677dc857bcc0d",
    "history-encode/m_accept1/y=1/T=2":
        "6f840d84d2cd8ddc77951049676fe5653951c294a32dbe7d2876d7a389577190",
    "history-encode/m_accept1/y=1/T=4":
        "46332a48a1e32a8e88d21997384489fe36c33c534fbe253c56004724e8f9aade",
    "history-encode/m_accept1/y=11/T=2":
        "3749d7e9ea5a5e4e4caa01f0bb6bf7282b8a80111ff55feb45415bdffed34323",
    "history-encode/m_accept1/y=11/T=4":
        "ffc7efe5135283d0e41ea0022f2b4c7039d0d393523335e67a46bfe2576950e9",
    "history-encode/m_loop/y=/T=2":
        "f7bea6b15885410a80b96bc2892612b504fd68b124a0c9b9415ff47b0546f74b",
    "history-encode/m_loop/y=/T=4":
        "fd574aaf22ff957ad7ae3737aaacf58518d4e7e839bc087dcee180992384de4c",
    "history-encode/m_loop/y=1/T=2":
        "e71d7ce8f96aaf94d0d6eaec06bfa29a7a5967f46734611ebc734aa392d99fed",
    "history-encode/m_loop/y=1/T=4":
        "4c07b7e78efa68df622373011dfbca108a5a6a94eda12bbe7d732893e53b3905",
    "history-encode/m_loop/y=11/T=2":
        "4305bdb943861b4e508236d40ed7dfaee7fa840322bca67c9264ddd05129ffc8",
    "history-encode/m_loop/y=11/T=4":
        "c1d09e8013b2e12d9f9be833944a94f767bfd15c6cf52d092273737699438112",
    "history-encode/m_nd/y=/T=2":
        "7840afbe6fef03331e28ea47bd4e673e2f9d3efaaec9dfa998bd569f52f17724",
    "history-encode/m_nd/y=/T=4":
        "d9ad902d8415f4fcf7b8d6f138d8ba87b65df19cc7e270e0ec3531133d3458f1",
    "history-encode/m_nd/y=1/T=2":
        "d2f9885c980c6cc39b089c91a5f6804f4969f1d60c8a123e32541f110830c139",
    "history-encode/m_nd/y=1/T=4":
        "67fd9063ea16269881aa8a05be1d641695e073ca4b473d0ae957825842172450",
    "history-encode/m_nd/y=11/T=2":
        "ac74ec1f098c652991abc097a01e5c3df7d00ee750d0f2f8d9fe6e7565295585",
    "history-encode/m_nd/y=11/T=4":
        "cadd696fd77853f1a3903835939027cb12792d26b52ae89a6c5536d20478b021",
    "history-encode/m_parity/y=/T=2":
        "cb68c1dd0a4338acf947f3d0bae5f60b48f0898ae6f58c31d0af227c76ef891c",
    "history-encode/m_parity/y=/T=4":
        "c6963db3fe177f107321071f9ef56cd230d1ff0d5d2efa97cbf6a43e2bcf0084",
    "history-encode/m_parity/y=1/T=2":
        "4bca5f9dabbc3ab9a483637f253b4054f5949246d753466b41ed842f493bd35f",
    "history-encode/m_parity/y=1/T=4":
        "e425f5532be62562b09c36d6965c696127d4fff352fea3234dbc04474d2cedd2",
    "history-encode/m_parity/y=11/T=2":
        "2e39647e79eeaf7df3eb827bd8258e9e5be8e4235d7b67c9e6a127e20ceb915d",
    "history-encode/m_parity/y=11/T=4":
        "b8470855057621b25dc7213eb2ca49f680fadebfd3187959c649e8ec314676a3",
    "kim-build/m_accept1/json":
        "5935d210ce339fec1d4254bb304a478b42d62876de99f6a7ab1bb479250b1718",
    "kim-build/m_accept1/text":
        "65da767360215e53436eda6da079b3e36749e4a0a91b124cc8061339d487b244",
    "kim-build/m_nd/json":
        "266368ee5e61341183cdd61de2606a01fb932397b3057b4244aa6e0d26b9977c",
    "kim-build/m_nd/text":
        "65da767360215e53436eda6da079b3e36749e4a0a91b124cc8061339d487b244",
    "kim-build/m_parity/json":
        "1db22c9e202359ba6330230de0f9a8c8a319f5a48c31d0df94f21e8d761db32a",
    "kim-build/m_parity/text":
        "5625cb043fb05b3f2fc86df20c028765697db4a1fc4906a160de37ab1e1dba50",
    "kim-metrics/m_accept1/y=/json":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_accept1/y=/text":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_accept1/y=1/json":
        "7e51e5d8483cf80eade6d9342dec66171f620acaf05b56f1729139bc6825aa8e",
    "kim-metrics/m_accept1/y=1/text":
        "b65d85ee1a5721e6ece2bc3e6c2b96bf6dacbefc7bc0bc0a8c7c0f986ba1d2e0",
    "kim-metrics/m_accept1/y=11/json":
        "7e51e5d8483cf80eade6d9342dec66171f620acaf05b56f1729139bc6825aa8e",
    "kim-metrics/m_accept1/y=11/text":
        "b65d85ee1a5721e6ece2bc3e6c2b96bf6dacbefc7bc0bc0a8c7c0f986ba1d2e0",
    "kim-metrics/m_nd/y=/json":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_nd/y=/text":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_nd/y=1/json":
        "7e51e5d8483cf80eade6d9342dec66171f620acaf05b56f1729139bc6825aa8e",
    "kim-metrics/m_nd/y=1/text":
        "b65d85ee1a5721e6ece2bc3e6c2b96bf6dacbefc7bc0bc0a8c7c0f986ba1d2e0",
    "kim-metrics/m_nd/y=11/json":
        "7e51e5d8483cf80eade6d9342dec66171f620acaf05b56f1729139bc6825aa8e",
    "kim-metrics/m_nd/y=11/text":
        "b65d85ee1a5721e6ece2bc3e6c2b96bf6dacbefc7bc0bc0a8c7c0f986ba1d2e0",
    "kim-metrics/m_parity/y=/json":
        "a74d68ff4472df01e3fda0ba848f99b77da93492ffcf6a25b2e1ac7952d98bdd",
    "kim-metrics/m_parity/y=/text":
        "2cd7ad0336a32731e82547ff0008751b03405801489e5551d7078bc997181450",
    "kim-metrics/m_parity/y=1/json":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_parity/y=1/text":
        "caae651b9971b5cf3b221023eebcccbe01446af3480b2c286a6ef5a7b046f4da",
    "kim-metrics/m_parity/y=11/json":
        "3f81d825fd6146c530c3e367c8c3a1b81898c292fdd3d743159eb3cc19cf2a92",
    "kim-metrics/m_parity/y=11/text":
        "9c4c56cafcd6ce2f9ba1793dc0024c1e5e93a1aa5d3e11f11ed467269bead3ee",
    "kim-run/m_accept1/y=/json":
        "f6b21060e80257673d3408028f450a747b2d644f4b3013cc19ae77a8905f5321",
    "kim-run/m_accept1/y=/text":
        "064e32da07c206daefd7132aacde668082ce10c808fdaf0431dda0ecca2a0242",
    "kim-run/m_accept1/y=1/json":
        "36a0231f0e1215e5e521176cc9525502af9b76c27ec10c9ece008b13b5b62a1f",
    "kim-run/m_accept1/y=1/text":
        "095a13d6f0d049e2cfd6f590a206ada4e1101f09f20493763ce5a6f61dd81d76",
    "kim-run/m_accept1/y=11/json":
        "22b27f9c6dcda3c5d88596f28782151dd9b310e0c9fbd738a1d1f25c5f4bb152",
    "kim-run/m_accept1/y=11/text":
        "095a13d6f0d049e2cfd6f590a206ada4e1101f09f20493763ce5a6f61dd81d76",
    "kim-run/m_nd/y=/json":
        "f6b21060e80257673d3408028f450a747b2d644f4b3013cc19ae77a8905f5321",
    "kim-run/m_nd/y=/text":
        "064e32da07c206daefd7132aacde668082ce10c808fdaf0431dda0ecca2a0242",
    "kim-run/m_nd/y=1/json":
        "36a0231f0e1215e5e521176cc9525502af9b76c27ec10c9ece008b13b5b62a1f",
    "kim-run/m_nd/y=1/text":
        "095a13d6f0d049e2cfd6f590a206ada4e1101f09f20493763ce5a6f61dd81d76",
    "kim-run/m_nd/y=11/json":
        "22b27f9c6dcda3c5d88596f28782151dd9b310e0c9fbd738a1d1f25c5f4bb152",
    "kim-run/m_nd/y=11/text":
        "095a13d6f0d049e2cfd6f590a206ada4e1101f09f20493763ce5a6f61dd81d76",
    "kim-run/m_parity/y=/json":
        "43fe77aa4592874d1d8858c33815420c9aed98519b9f0f8b8eb0048aab9aa1c0",
    "kim-run/m_parity/y=/text":
        "2752511e532e98623f2bca137efb339cde78eee4479ce8272822b2e0ea6e465c",
    "kim-run/m_parity/y=1/json":
        "0f6d168df16dbdee76c21a58f07ceee81560b3de37c35871ef34c6bd0a267f41",
    "kim-run/m_parity/y=1/text":
        "064e32da07c206daefd7132aacde668082ce10c808fdaf0431dda0ecca2a0242",
    "kim-run/m_parity/y=11/json":
        "ff92b437673a8d8d36fcbbae503939b3fd99379bc46f17128f08d01edaf1c8d7",
    "kim-run/m_parity/y=11/text":
        "2752511e532e98623f2bca137efb339cde78eee4479ce8272822b2e0ea6e465c",
    "merge/m_accept1/m_loop":
        "c3369dbe48bb0127994b1279b5c06fec594aa19af76c8ace54beab34a007be1c",
    "merge/m_accept1/m_nd":
        "4cc93986b99c0e17fba1f36421026ee128f3a9e43367d77a0edca9bfec869c61",
    "merge/m_accept1/m_parity":
        "40a0a5e9c22397605673fc14d23d13d6c9253cb10d04903800c300321acc75ca",
    "merge/m_loop/m_accept1":
        "19f0551a3a7ed07c244ac5b0a7a77780c30c73d11cdb458fde38cf315f720e42",
    "merge/m_loop/m_nd":
        "83f5fc7e3a6fd7be75a8ef8ec139e4b93b3ffbbd2855f4ca9a9d529ff46f0c71",
    "merge/m_loop/m_parity":
        "f580d2c91821eb14dc18ceee8c68f0e6f3110de85dfd389ee16e488b210ed08e",
    "merge/m_nd/m_accept1":
        "454337ba6bcbd1b11a456c32975b3f5dfbcab449aa150bbe002f481e1fc10eba",
    "merge/m_nd/m_loop":
        "bae5ac14aa38457d08e0b9dfe2fd84b0e62988f4a532a503ccecc6fcb0c74ff1",
    "merge/m_nd/m_parity":
        "3f0ef53d0f9d7829d70ac7e426f731746c6f6401a6c63c4db2a8a85fa55a0fff",
    "merge/m_parity/m_accept1":
        "b4b7183086c7be42f51be43d00f00a4c0db9fc08bf9c9c9c84d300388f6ce928",
    "merge/m_parity/m_loop":
        "eb6b88e8464d32775a072c968e5ef7a758d2a9759526c8705f3f7972c22e2678",
    "merge/m_parity/m_nd":
        "aadd83ba901bba07d41e82edf6d305cb9068e0729acd60fa24e5fb6592d560bc",
    "reduce/m_accept1/y=/T=2/all":
        "0e2d07f5b7a2fb4b87c8f9f3cb92f753a9e6f4165c37ea31065e7af4d010defc",
    "reduce/m_accept1/y=/T=2/input":
        "998407542c6daee91d645204c167212dce592f607be80854ab3175a0905fe1d9",
    "reduce/m_accept1/y=/T=2/run":
        "7445b569509811766c9bf53f5f174d3d2d4b7e6303a5b87d5c369a67e6926f67",
    "reduce/m_accept1/y=/T=4/all":
        "d57418da56a29593e30a752d6dda0f41eff9f3a656f38cfcc92952feb7fdebe5",
    "reduce/m_accept1/y=/T=4/input":
        "44cbb1998c58246498fd075f33538d30a31b4e812fbc8c85b192fef4873cfffe",
    "reduce/m_accept1/y=/T=4/run":
        "55cdfa224af073c9d8c5c15044203547d9f1efe810e71c526c9d188e94b53705",
    "reduce/m_accept1/y=1/T=2/all":
        "483aae5e534822d72972013c5f7257b7377e365f32c438c0fd347dcebd0683ed",
    "reduce/m_accept1/y=1/T=2/input":
        "c9dece498db724f85b8d39e294c405c98bf4665466d01b5e70beda468970ff2c",
    "reduce/m_accept1/y=1/T=2/run":
        "7445b569509811766c9bf53f5f174d3d2d4b7e6303a5b87d5c369a67e6926f67",
    "reduce/m_accept1/y=1/T=4/all":
        "cabdaccaa2edf27909e6db3863674dd36c13f8167b943fd5d1c56e6d5993aa14",
    "reduce/m_accept1/y=1/T=4/input":
        "ea6c185e09ea45a8f40c24b1070cfbcd1ce39421cd4fd4d9df23aeab73e0bc2e",
    "reduce/m_accept1/y=1/T=4/run":
        "55cdfa224af073c9d8c5c15044203547d9f1efe810e71c526c9d188e94b53705",
    "reduce/m_accept1/y=11/T=2/all":
        "0b5fd9cae7f95aa50bf986f24b966f90cef71d6b50a733929349f42473067861",
    "reduce/m_accept1/y=11/T=2/input":
        "0876f539f77cbc3e145b3be031125aa263ef29850b5b21d33fb1fb9c4f7cbd20",
    "reduce/m_accept1/y=11/T=2/run":
        "7445b569509811766c9bf53f5f174d3d2d4b7e6303a5b87d5c369a67e6926f67",
    "reduce/m_accept1/y=11/T=4/all":
        "2e7e1a5c4a4a27c88fde256c2d426b648ec9a419adc6461df3d7798cf208fbc6",
    "reduce/m_accept1/y=11/T=4/input":
        "4f32b54ada27856ed8744d380c23f433d17d7e3a4cb691a8da24d86fc6526a35",
    "reduce/m_accept1/y=11/T=4/run":
        "55cdfa224af073c9d8c5c15044203547d9f1efe810e71c526c9d188e94b53705",
    "reduce/m_loop/y=/T=2/all":
        "c0dc63f8abf31fc07a188279e485bb52de96158877f6d50280d9dde48d464aae",
    "reduce/m_loop/y=/T=2/input":
        "be4b995cb46cb80bae54d8c65507bdbfb67898b4e10834bde65de65f8912ff76",
    "reduce/m_loop/y=/T=2/run":
        "f4738de18c6be1e095d7e8dd6305778669498d00f915b0de9561b913d153d8e9",
    "reduce/m_loop/y=/T=4/all":
        "a1e5dc6b09549b8bf322e7508cc59da6eeaf93a38ed59d569e4c478b241bc636",
    "reduce/m_loop/y=/T=4/input":
        "e68b9dced280771485b0c5187b8fbbfcbb0d400082f8aa2e279fb8044e69edf0",
    "reduce/m_loop/y=/T=4/run":
        "6a9733f9aa18f5e0cea1b3a2aa8fbb80d747d86dda49dc4b62ab16c266e8489f",
    "reduce/m_loop/y=1/T=2/all":
        "ac0dc36fee077cca2d5cc72e8195859df05c4526663818fe288678683e18b6c0",
    "reduce/m_loop/y=1/T=2/input":
        "d4996f599aded1bbef45bbfa6acb2228a5ed6274a4d04e15db959dbe75998941",
    "reduce/m_loop/y=1/T=2/run":
        "f4738de18c6be1e095d7e8dd6305778669498d00f915b0de9561b913d153d8e9",
    "reduce/m_loop/y=1/T=4/all":
        "f43e5ff757692f88e39477f425c3481faa99672a27b100256fe2cb5541ce876f",
    "reduce/m_loop/y=1/T=4/input":
        "9b3f5417710e293d3f54fddd960a01cc4716535d6e0b198676e32f00a8807b62",
    "reduce/m_loop/y=1/T=4/run":
        "6a9733f9aa18f5e0cea1b3a2aa8fbb80d747d86dda49dc4b62ab16c266e8489f",
    "reduce/m_loop/y=11/T=2/all":
        "4f7a93de4e3816348ad03213fdcd48cee4845ce9945cea7d5207a310bab0bc03",
    "reduce/m_loop/y=11/T=2/input":
        "2c52582281da985228862065f6f1fcb3425f9f1aaebf438e3cb9dc2c936ef65b",
    "reduce/m_loop/y=11/T=2/run":
        "f4738de18c6be1e095d7e8dd6305778669498d00f915b0de9561b913d153d8e9",
    "reduce/m_loop/y=11/T=4/all":
        "b7ff02199480586a90834c790b451adbc9a72b3bb2704702291a8bebd2607b60",
    "reduce/m_loop/y=11/T=4/input":
        "2bbc0a2e06591fd7be35c9c6cde07710b43592dd84c688394dfc40d80d593128",
    "reduce/m_loop/y=11/T=4/run":
        "6a9733f9aa18f5e0cea1b3a2aa8fbb80d747d86dda49dc4b62ab16c266e8489f",
    "reduce/m_nd/y=/T=2/all":
        "0da6a0a5b593b3f6e0b644b9f0755c8b84103a1e6f317e4f4e15148c6c7fa15d",
    "reduce/m_nd/y=/T=2/input":
        "8673da7961f685e3b5879c17647c68a5d04f6f82280ae0a959ec7756715d0cf7",
    "reduce/m_nd/y=/T=2/run":
        "8d6b9af333390f998f4172785a5c5fdd31c04e1e60911e7a02464df4dcfc8298",
    "reduce/m_nd/y=/T=4/all":
        "a4386b49afe7e688b1452a1ee559644193fbe897c4ad1f47b7ebcbcb610f620a",
    "reduce/m_nd/y=/T=4/input":
        "8f7d8c81849b98dd4d2b758c9bb7864bf4b6fcd041190d43ab898a26c0798dc2",
    "reduce/m_nd/y=/T=4/run":
        "1c3675a5c1d56c3c64dec58a7cb49271e26b05349d4d039ef137723cec11d663",
    "reduce/m_nd/y=1/T=2/all":
        "d9934dbbe466bfee98ee77918df46794b698063f095f5334587dc0310dc91c06",
    "reduce/m_nd/y=1/T=2/input":
        "b48d4b67d94e0ce453fdc2363b24c3a7f0160bbbff005fb1285debafd60702c0",
    "reduce/m_nd/y=1/T=2/run":
        "8d6b9af333390f998f4172785a5c5fdd31c04e1e60911e7a02464df4dcfc8298",
    "reduce/m_nd/y=1/T=4/all":
        "608b8dd1e5821fd0fd17c5aea0bbd0db529f248774e15767e30c2c72f07146c2",
    "reduce/m_nd/y=1/T=4/input":
        "762a2dae222f42a28c76936a7cd7facc1887284787f8a1827035ae99750de22a",
    "reduce/m_nd/y=1/T=4/run":
        "1c3675a5c1d56c3c64dec58a7cb49271e26b05349d4d039ef137723cec11d663",
    "reduce/m_nd/y=11/T=2/all":
        "102459356a7072dffe738477713ef8d630789e2c8790c408aaf1c59852d1ada8",
    "reduce/m_nd/y=11/T=2/input":
        "0bf8f3f49853f2e841f1e330c9c655d12eeae27813c364b0426fc19d6be05af3",
    "reduce/m_nd/y=11/T=2/run":
        "8d6b9af333390f998f4172785a5c5fdd31c04e1e60911e7a02464df4dcfc8298",
    "reduce/m_nd/y=11/T=4/all":
        "b156a5cc6e315ef2e8bb51746e4ac61a147ed0da3f4f1bd78b1d649cbf40eb75",
    "reduce/m_nd/y=11/T=4/input":
        "e7990bc49dc6f69c3c7c080ef1dda13488a710f413ed1e685effedabd1dde9f8",
    "reduce/m_nd/y=11/T=4/run":
        "1c3675a5c1d56c3c64dec58a7cb49271e26b05349d4d039ef137723cec11d663",
    "reduce/m_parity/y=/T=2/all":
        "d8cc33380b55d0049a6a18aa6f7e1aac2a8dbc1b6babeac78b57343d0c108842",
    "reduce/m_parity/y=/T=2/input":
        "939c140b5267e63426d574d1fed051cd8e12e88630e2b4014c837604687aa099",
    "reduce/m_parity/y=/T=2/run":
        "222ae23fc947a8a975e10c7ad27c69ece098ced3dbc1252acb03dc9ae557c4c6",
    "reduce/m_parity/y=/T=4/all":
        "7d9c0190ba7c8b9495053244e75b039a13765778ad29c6897ac5723d2fe1ebb6",
    "reduce/m_parity/y=/T=4/input":
        "f7cd6f3d331b5deec8cd8fcd23605068d992661fb18730628a4da4929b129937",
    "reduce/m_parity/y=/T=4/run":
        "6c0a6a5b90726a2c064cea70e3e79a9dc1819d6fb73fbed09ee34cd896732c1e",
    "reduce/m_parity/y=1/T=2/all":
        "795ccf49628db88499eeaf52292cbced16b2154d0a7a41cc4b17715c73aa3d83",
    "reduce/m_parity/y=1/T=2/input":
        "9ccc2f166db2989ac64b748485514cb851d07f768791b209aa271be59f72406c",
    "reduce/m_parity/y=1/T=2/run":
        "222ae23fc947a8a975e10c7ad27c69ece098ced3dbc1252acb03dc9ae557c4c6",
    "reduce/m_parity/y=1/T=4/all":
        "acb34d8af10201aa73b32065906ea79c158f681fa8fae2cead8a0e250ec9cdfa",
    "reduce/m_parity/y=1/T=4/input":
        "4473f8d4defe7159ebf2588f13e824ee0799c5c8777c7f710ceb980d15db6938",
    "reduce/m_parity/y=1/T=4/run":
        "6c0a6a5b90726a2c064cea70e3e79a9dc1819d6fb73fbed09ee34cd896732c1e",
    "reduce/m_parity/y=11/T=2/all":
        "ca9c19ad4815c3d411419d1e96f2af53d3be86f3a7a4bbd46264b3cea0cf6da1",
    "reduce/m_parity/y=11/T=2/input":
        "979afa8cf3328b28e6adb3b54d48d3143ca94c9c4a873d74de3ba240145f8cd6",
    "reduce/m_parity/y=11/T=2/run":
        "222ae23fc947a8a975e10c7ad27c69ece098ced3dbc1252acb03dc9ae557c4c6",
    "reduce/m_parity/y=11/T=4/all":
        "1f93a55140186a3d30ba821a3beefdcd7361009361b92f733f7385d3e896ca0b",
    "reduce/m_parity/y=11/T=4/input":
        "4bb5c9909f798841610a661fff198ac77f8ebe622f1bee2cbc101a25cb40a418",
    "reduce/m_parity/y=11/T=4/run":
        "6c0a6a5b90726a2c064cea70e3e79a9dc1819d6fb73fbed09ee34cd896732c1e",
    "solve/fault/bad-literal":
        "d198f9b938127a99db7838e885c844e8c3e46e40caf52554bf7919178dfd37e6",
    "solve/fault/clause-before-header":
        "1aef44a08fda0047d976b32cb870763b2f2cbbf84108ba96daf851fdff3cb43e",
    "solve/fault/count-mismatch":
        "b6093751432a9b2537d631b88fc5cbffc327db42ca3dd84b1d1d49cacb1f0e04",
    "solve/fault/duplicate-header":
        "6dacf35a0873b47ad5571d447ecd778690e10676fa59cb73fa38b3cb6c69bf22",
    "solve/fault/empty-clause":
        "ef6a90a870a2364c467d91d75f01729b4d9b6fca651d9e0aa2052ae84be824e0",
    "solve/fault/malformed-header":
        "0b59a550ace6ce075972955ac0e6034eb329c98bd92f74f9ac2d02a0f0f729a4",
    "solve/fault/missing-header":
        "b381cd43c5001aa826959dd2823496410cfe226c32751ba0601fc5c4537dc889",
    "solve/fault/missing-terminating-0":
        "fe40a5d5aec5cefcf6cbb32091a47ce05bb3bf943b746a1584a93a8feb1b1f6d",
    "solve/fault/negative-count":
        "6ffb709deb588dc76a59423e18e78772a02fa4ad9044c47326a0c105757cba63",
    "solve/fault/out-of-range":
        "014ae067ba10b31ad1f52c6276f6d86b37964ed7a359873d77a879b34b930e12",
    "solve/m_accept1/y=1/T=2":
        "5b2f49c7c7d43495e0a6b17d8748fb6c69491bdb3244b9d5fa8b4dee4a34e0da",
    "solve/m_accept1/y=1/T=4":
        "c883134dfd086b54053c7e22a8fae282a0780153ea274dd9178bae61559fadf2",
    "solve/m_accept1/y=11/T=2":
        "267cff7da28d7c10e8875eeef08e59dc303d0c975f81fa31f96cbf1ba03a0b01",
    "solve/m_accept1/y=11/T=4":
        "ae88ca321c259e6040cf527b45e3cd2aef2882b12b630e501d419516dcd5076c",
    "solve/m_loop/y=1/T=2":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_loop/y=1/T=4":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_loop/y=11/T=2":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_loop/y=11/T=4":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_nd/y=1/T=2":
        "66a2d246eceb354775c1d78923268499bc87db786f44eb7cb5a9e504aeb4593d",
    "solve/m_nd/y=1/T=4":
        "cd9e92af7f9aa9040324dab1459dc5f05d73fc1a02a20eab5594869d23db5fd4",
    "solve/m_nd/y=11/T=2":
        "5e286233a1e4895c5cc2a6c664032d020acb30b9f4eab53859ffc2cfcac92850",
    "solve/m_nd/y=11/T=4":
        "2c5c71a7b9add15bb29944fb7fc463b931d7f156619ca0499bc26d50316bdef2",
    "solve/m_parity/y=1/T=2":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_parity/y=1/T=4":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_parity/y=11/T=2":
        "1e2e4d4d2a6bc22f367b038cbc16d6e24484eaa6d4ca808fbbb6db831f4fc5c6",
    "solve/m_parity/y=11/T=4":
        "1fb982d6047752effc2abd1463d6112d75c87b0b6ff36a9a19efe90bf4afe781",
    "verify/m_accept1/y=1/T=2":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_accept1/y=1/T=4":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_accept1/y=11/T=2":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_accept1/y=11/T=4":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_loop/y=1/T=2":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_loop/y=1/T=4":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_loop/y=11/T=2":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_loop/y=11/T=4":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_nd/y=1/T=2":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_nd/y=1/T=4":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_nd/y=11/T=2":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_nd/y=11/T=4":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
    "verify/m_parity/y=1/T=2":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_parity/y=1/T=4":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_parity/y=11/T=2":
        "6cea75ade0d1d93a5113d22d3edc96cde90817250ea7f1d24cc75ea8b1aa7f7f",
    "verify/m_parity/y=11/T=4":
        "3c99b7a7cfbb972279c8cd600083162406ab5f88e78915be65cfc635dbdcb326",
}

# sha256 of to_dimacs(reduce_machine(fixture, input, T)), with the text's
# length in bytes.
DIMACS_GOLDEN = {
    ("m_parity", "000", 4):  # 11440 B
        "ff29c127003f1253e23cf52a280a83c4b750c8391fce023824f577c7b9d93e36",
    ("m_parity", "000", 8):  # 40804 B
        "56dc0e9f8e802ae34ae1e33334973ae0e3f0d5fb8b42e571e4708165351204fa",
    ("m_parity", "000", 16):  # 175003 B
        "938103605aa56ee4f3817a0f333209f650ccb592f3f8c5fe0e5f7d95369baf29",
    ("m_parity", "000", 32):  # 811986 B
        "6ceaa80586d7322e547f19119b1b149005e490138dfd91c4c3211571739816f1",
    ("m_parity", "000", 48):  # 2121263 B
        "6628b66adc01541eaecb4e3c2771c73f66c79d60b1a8873604888fe6dae83f89",
    ("m_loop", "000", 16):  # 144337 B
        "c60c270bc1d7a514645498fbdf566ebae90e11e36b28ce662b2920239f1a0967",
    ("m_loop", "000", 32):  # 690978 B
        "e3d1e91b93ebc1e98ffe8490697cdf13f7bb60f627bc8c11a5928a8793d84b6b",
    ("m_accept1", "100", 32):  # 695695 B
        "930ab3f3610ae18e2a7dc88811c3257eec7ebac54217ebc101d0f70650105919",
    ("m_nd", "100", 32):  # 753874 B
        "0a4fede56309bebc1f87fa576f2a629cf40d05ec859dccaa9e96638672f6741e",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name in FIXTURE_NAMES:
        (root / f"{name}.tm").write_text(fixture_text(name))
        for y in SOLVE_INPUTS:
            for bound in BOUNDS:
                cnf = root / f"{name}-{y}-{bound}.cnf"
                assert main(["reduce", "-m", str(root / f"{name}.tm"), "-i", y,
                             "-T", str(bound), "-o", str(cnf)]) == 0
    for fault, text in DIMACS_FAULTS.items():
        (root / f"{fault}.cnf").write_text(text)
    lib = root / "lib"
    lib.mkdir()
    for entry, fixture, y in KIM_LIBRARY:
        (lib / f"{entry}.tm").write_text(fixture_text(fixture))
        (lib / f"{entry}.in").write_text(y + "\n")
    return str(root)


def run_digest(argv, workdir):
    """sha256 over the exit code, stdout and stderr of one CLI call, with
    the work directory's path written as `{dir}`. The CLI writes bytes, so
    each stream is captured as the bytes under a text stream."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{dir}", workdir) for arg in argv])
    out, err = (stream.buffer.getvalue().decode("utf-8") for stream in (out, err))
    text = f"{code}\n{out}\0{err}".replace(workdir, "{dir}")
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, workdir):
    assert run_digest(CASES[case], workdir) == GOLDEN[case]


@pytest.mark.parametrize("fixture, y, bound", sorted(DIMACS_GOLDEN))
def test_dimacs_golden_at_benchmark_size(fixture, y, bound):
    text = to_dimacs(reduce_machine(load_fixture(fixture), y, bound))
    assert hashlib.sha256(text.encode()).hexdigest() == DIMACS_GOLDEN[(fixture, y, bound)]
