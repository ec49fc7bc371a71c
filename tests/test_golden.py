"""Golden outputs of the CLI: sha256 digests of exit code, stdout and
stderr over a fixed grid of `reduce`, `history encode`, `solve`,
`verify`, `merge`, `kim`, `argue` and `corpus-test` calls.

The `reduce`, `history encode`, `kim` and `corpus-test` digests were
recorded before the variable-grid refactor of `reduction`; the others
before decode stopped re-checking the model and `from_dimacs` stopped
range-checking literals itself. They pin DIMACS, JSON and error output
byte for byte; the work directory's path reads `{dir}` in the output. A
digest changes only with an intended, documented change of output.
"""

import contextlib
import hashlib
import io

import pytest

from tmsatlab.cli import main
from tmsatlab.fixtures import FIXTURE_NAMES, fixture_text

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
        "993359831b39a8012b1d14ab879848988c9c0368a83f3cab8389e3b21a4fd9de",
    "history-encode/m_accept1/y=1/T=4":
        "470fb55834798f98a68105a95d1cac11414afa3a4df95b4eb32865ea21bab0f9",
    "history-encode/m_accept1/y=11/T=2":
        "12ff576c8551584c7bc311279518ce7cafeed322a2989930414e07cd2846797c",
    "history-encode/m_accept1/y=11/T=4":
        "7c097b3e2995c124cbd01a1cb99c0fe5356f3f4825c892c9023a871897cb9f25",
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
        "bbe949e581bad6d5beb078db600ca51c299c3a6779b2400ee986a9c42749fbd1",
    "history-encode/m_nd/y=1/T=4":
        "d154b45e062352ebd9abba400add98a099894ea7aaeb88e3554c9c46c1bce866",
    "history-encode/m_nd/y=11/T=2":
        "1b6928366e17a2f5c55f6b7471153e0cf6a2ddfbf19d60b124c19966a91bd3f6",
    "history-encode/m_nd/y=11/T=4":
        "a3de7fcf0e100c94220794f545dac903f7598e771d745b509a66c06f1420cd12",
    "history-encode/m_parity/y=/T=2":
        "d97744a84d6b9f372c58817001da6f6920736090c912f65c0282fc874d610682",
    "history-encode/m_parity/y=/T=4":
        "9a32e831a9b70d91377cda8edf7ebbd2b7023c30b19329d34c3da765b7091431",
    "history-encode/m_parity/y=1/T=2":
        "4bca5f9dabbc3ab9a483637f253b4054f5949246d753466b41ed842f493bd35f",
    "history-encode/m_parity/y=1/T=4":
        "e425f5532be62562b09c36d6965c696127d4fff352fea3234dbc04474d2cedd2",
    "history-encode/m_parity/y=11/T=2":
        "2e39647e79eeaf7df3eb827bd8258e9e5be8e4235d7b67c9e6a127e20ceb915d",
    "history-encode/m_parity/y=11/T=4":
        "2236a4a4791edcce84f6fee22a360e6ff8531c7cd7509ea311424e4d326b56d3",
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
        "c3d10752fbc924707e38a3744d6741e0f330b76784140c43fc335c9f1a73eff5",
    "reduce/m_accept1/y=/T=2/input":
        "9df78494df13862bee38ce5f5ed2f2331e940789a7827a30a6291d7e4dd5b435",
    "reduce/m_accept1/y=/T=2/run":
        "832941069798e279858f2240b9d951dcaf39de70c51c13930cb23b7f26526ad9",
    "reduce/m_accept1/y=/T=4/all":
        "c754b18e87f5869ec58eb2b63f062eef134b7f6fe7e826d70fd947a04e9c59de",
    "reduce/m_accept1/y=/T=4/input":
        "45f8454568d7579ff8d0a0b2f0f5962bcecd97a71b64ef03a6a73e12ea8f575b",
    "reduce/m_accept1/y=/T=4/run":
        "efeb5f6f8e35639172237a48bb93925b5ace629729d7bc85d76ddd83e6dd7ad1",
    "reduce/m_accept1/y=1/T=2/all":
        "ae4c69d1ec9fbbfb42df17eae38ef7a36a4f6306dad5bb83a29ee0776e9a4174",
    "reduce/m_accept1/y=1/T=2/input":
        "fe24a0dc571f7dab424bf6f019be1d017d6561caf50a3afc1f40cc3d5a640ebe",
    "reduce/m_accept1/y=1/T=2/run":
        "832941069798e279858f2240b9d951dcaf39de70c51c13930cb23b7f26526ad9",
    "reduce/m_accept1/y=1/T=4/all":
        "92cd792740b6c6ded86d64aab7335a73898d338d046acf78c8821b8c966c6e64",
    "reduce/m_accept1/y=1/T=4/input":
        "7683af913d78314567fcced5f2700c9345e8b31341fc12ff0d8e86ba3e29c4c3",
    "reduce/m_accept1/y=1/T=4/run":
        "efeb5f6f8e35639172237a48bb93925b5ace629729d7bc85d76ddd83e6dd7ad1",
    "reduce/m_accept1/y=11/T=2/all":
        "feed4f8c608a5900d6752d20e6a94682d18aedcfed8fd1658ece7476e0fe035b",
    "reduce/m_accept1/y=11/T=2/input":
        "a5580ef773e8a5ee267070b3d685318db0334c974b5bca80a91051262424c0de",
    "reduce/m_accept1/y=11/T=2/run":
        "832941069798e279858f2240b9d951dcaf39de70c51c13930cb23b7f26526ad9",
    "reduce/m_accept1/y=11/T=4/all":
        "b0a4e0f278f69fdfeb0ed7536d4d59dcc929c5fc59f553ce861a59b7ee05a754",
    "reduce/m_accept1/y=11/T=4/input":
        "c830eb250ac3460b972bacf1f549e464d7e660d0ad8c37712778e232be33bf0b",
    "reduce/m_accept1/y=11/T=4/run":
        "efeb5f6f8e35639172237a48bb93925b5ace629729d7bc85d76ddd83e6dd7ad1",
    "reduce/m_loop/y=/T=2/all":
        "2b9c80b78c773b04feffff3d029a3c87ff05c490848531db86f80a4e6eb31667",
    "reduce/m_loop/y=/T=2/input":
        "9f9e20672780fb9c883139b6a64b891e0b737ab5c9007fa14a58d31e3415aad8",
    "reduce/m_loop/y=/T=2/run":
        "8a6e141d0f4485235711187c31f5ea912d93c6ad49f7a2a0931ad4b140e3e6b7",
    "reduce/m_loop/y=/T=4/all":
        "4cf2b34a04f0eb9d2dc1d84c4b008ceed37d4e29dff33b7d90446fd4b64e07a9",
    "reduce/m_loop/y=/T=4/input":
        "e41edeaa5c64f441eaeaa65bdfce6e422f4607a485b3d0c87b6b95b3f0252bf2",
    "reduce/m_loop/y=/T=4/run":
        "9b74393c3465b006008a7a2331f9eb51213c65d2bde330da622f5ce909c52c7d",
    "reduce/m_loop/y=1/T=2/all":
        "e5e6f8e5f877226c6e1ee8e46349ec464efca8cbd22edefe560ace23a515278c",
    "reduce/m_loop/y=1/T=2/input":
        "596ddb976074c9a477de01746a838682dd52a894aa9b652de2874592cf4ec788",
    "reduce/m_loop/y=1/T=2/run":
        "8a6e141d0f4485235711187c31f5ea912d93c6ad49f7a2a0931ad4b140e3e6b7",
    "reduce/m_loop/y=1/T=4/all":
        "8bb4308672893ace9c1b69e27f03eb0602f2c5566663cf71df1db882553111d2",
    "reduce/m_loop/y=1/T=4/input":
        "c9ea39fd2367adfd09b80d5d656e79d69bc159050dd3488c2f48a8efef5f828c",
    "reduce/m_loop/y=1/T=4/run":
        "9b74393c3465b006008a7a2331f9eb51213c65d2bde330da622f5ce909c52c7d",
    "reduce/m_loop/y=11/T=2/all":
        "33968399dee0ebf7ed1602e523d5c15f77c1608ea3a65f52b421cda988af22b8",
    "reduce/m_loop/y=11/T=2/input":
        "64e5a13705e574958a3629fc1d608304dc771c1643dd4635f1e3f925081486c5",
    "reduce/m_loop/y=11/T=2/run":
        "8a6e141d0f4485235711187c31f5ea912d93c6ad49f7a2a0931ad4b140e3e6b7",
    "reduce/m_loop/y=11/T=4/all":
        "57796d9f4573e5c22e66bc01df2fbf653eef143500ae6f409643bf9e3d349fb6",
    "reduce/m_loop/y=11/T=4/input":
        "b30687a4eeeeac2a092197f6d33e9ea00c28d8ba7bec7b7fa4610245eddb0ff3",
    "reduce/m_loop/y=11/T=4/run":
        "9b74393c3465b006008a7a2331f9eb51213c65d2bde330da622f5ce909c52c7d",
    "reduce/m_nd/y=/T=2/all":
        "2d7683b5429381261fcab8f5624dfc2b2df263bb50796869128cd16d7615c85d",
    "reduce/m_nd/y=/T=2/input":
        "f816064ea7a13a03682c14cc677cdafbe17f56ef19134b07098a511b93024e81",
    "reduce/m_nd/y=/T=2/run":
        "1b46776f120926315c92110f9c4c5c476126977e9200b4e05775d877aaacdd8e",
    "reduce/m_nd/y=/T=4/all":
        "14e144a33fe723ee2b13a708296f9589af168776d07a9c64c7a27b436f970876",
    "reduce/m_nd/y=/T=4/input":
        "f3b0ff79568c40eca8c6b3706278465eb5773b23293aee58c7185bcb23d9695e",
    "reduce/m_nd/y=/T=4/run":
        "5e2ac26a283783b9efccfecbb30b506c5c14193ff3e3e8d2f1392f853670e69d",
    "reduce/m_nd/y=1/T=2/all":
        "73eb34308e05fdbb2ac2a135be46adb70b4de5518c2e5d0990b83921990255a3",
    "reduce/m_nd/y=1/T=2/input":
        "9a8c256de0f02bd217debe5a9521405bf27a5d9b5303d4731728c527de234da9",
    "reduce/m_nd/y=1/T=2/run":
        "1b46776f120926315c92110f9c4c5c476126977e9200b4e05775d877aaacdd8e",
    "reduce/m_nd/y=1/T=4/all":
        "d2f9d1f6707e217bc6b6bd7bba84729fe73b7e0b4c152ef303d391cd8b951453",
    "reduce/m_nd/y=1/T=4/input":
        "ca78c82eb972312f69d40551c2d9170d55de1a1fea55f68b3de9842b02d2b0fb",
    "reduce/m_nd/y=1/T=4/run":
        "5e2ac26a283783b9efccfecbb30b506c5c14193ff3e3e8d2f1392f853670e69d",
    "reduce/m_nd/y=11/T=2/all":
        "1fb12227b7c55f5c116324542443c4e277ffeda968182c91000a7672e31730d5",
    "reduce/m_nd/y=11/T=2/input":
        "b7b0587ce5ee4e39647387c03457b04af47ad7f6ac84364a426704582c1ac744",
    "reduce/m_nd/y=11/T=2/run":
        "1b46776f120926315c92110f9c4c5c476126977e9200b4e05775d877aaacdd8e",
    "reduce/m_nd/y=11/T=4/all":
        "89f626feca8313a871e9362e4aa3540585f71c50cd6b3185f3c729e54de9409f",
    "reduce/m_nd/y=11/T=4/input":
        "98c0db97093a827f4bc1feab2ef6fb8783cc7cf1c79f29e5e68feb58f31dfbbd",
    "reduce/m_nd/y=11/T=4/run":
        "5e2ac26a283783b9efccfecbb30b506c5c14193ff3e3e8d2f1392f853670e69d",
    "reduce/m_parity/y=/T=2/all":
        "71a37d294ffd2dcabad7219ac242d7e0d9b20bb9ab766ba489bab654a580cad7",
    "reduce/m_parity/y=/T=2/input":
        "1eb33d9ff5bbe6c2e973e40fcf63548e8ed705fbe377034045fbd0e9431780ff",
    "reduce/m_parity/y=/T=2/run":
        "7cf7ba9712d22a52767a7d9f04bc1c53e8a8b18cafb0fddf99ad6f3d20214775",
    "reduce/m_parity/y=/T=4/all":
        "68738c50ded3acec72fd6b5775b535976bc540e1443494da70206f401650b331",
    "reduce/m_parity/y=/T=4/input":
        "1c55498ebf090388ee7335507a2c7c23520efec08dad7544b476775e971eb86f",
    "reduce/m_parity/y=/T=4/run":
        "397b470493012c5492e7f8dca8ec22212dc3fd9be853183e88bbef9117de260d",
    "reduce/m_parity/y=1/T=2/all":
        "ae1b6ee975480832966908bb035af595e1eaef4936f58676408bbabc20f7d4c0",
    "reduce/m_parity/y=1/T=2/input":
        "a5bb0d2e57de8f472548af4924afc1a19102643fd2111431c31554970b1abd25",
    "reduce/m_parity/y=1/T=2/run":
        "7cf7ba9712d22a52767a7d9f04bc1c53e8a8b18cafb0fddf99ad6f3d20214775",
    "reduce/m_parity/y=1/T=4/all":
        "f598f1f9cb0fd44afa829ac8df3ff638344f34a11dcfd563a0ac894d9c53bc1e",
    "reduce/m_parity/y=1/T=4/input":
        "278e233643deb9b05de411ce7085acf1489faa49b8fa70159522c924fe1ced78",
    "reduce/m_parity/y=1/T=4/run":
        "397b470493012c5492e7f8dca8ec22212dc3fd9be853183e88bbef9117de260d",
    "reduce/m_parity/y=11/T=2/all":
        "eebaf8e85eb1a100acce12ce1efc77fe442870ebd42043faa47a38deb83c45f3",
    "reduce/m_parity/y=11/T=2/input":
        "fabb0740d5c3ad7d7fc02d7b1402e1fbd89e303745280654ef5c9f00d447eccd",
    "reduce/m_parity/y=11/T=2/run":
        "7cf7ba9712d22a52767a7d9f04bc1c53e8a8b18cafb0fddf99ad6f3d20214775",
    "reduce/m_parity/y=11/T=4/all":
        "8de97df38acec2b3210cb49b43248a24a6722a76d6d659c48ee57223e6c15996",
    "reduce/m_parity/y=11/T=4/input":
        "6ea0be3d64a810ac0de684ee767be51b76ddfefb2d9d39cb323fd2e8ecd8c568",
    "reduce/m_parity/y=11/T=4/run":
        "397b470493012c5492e7f8dca8ec22212dc3fd9be853183e88bbef9117de260d",
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
    the work directory's path written as `{dir}`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{dir}", workdir) for arg in argv])
    text = f"{code}\n{out.getvalue()}\0{err.getvalue()}".replace(workdir, "{dir}")
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, workdir):
    assert run_digest(CASES[case], workdir) == GOLDEN[case]
