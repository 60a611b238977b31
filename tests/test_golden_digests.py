"""Golden digests: every method x delay kind x queue layout, byte for byte.

Each matrix cell is one short quadratic run; the extra cells add the mlp
and Rosenbrock objectives and a fixed delay past `tau_cut`, so that a
dropped update is pinned too. A pin is the sha256 of the serialized
result file, which carries the resolved config and its hash.
A refactor that moves any pin changed results or a default resolution.
Re-pin only for a deliberate behaviour change, and say so in CHANGES.md.
"""

import hashlib

import pytest

from stalelab.config import RunConfig
from stalelab.harness import serialize_result
from stalelab.simulator import run_experiment

METHODS = ("cgad", "pa_cgad", "adam", "adam_decay", "nesterov", "sdm",
           "poly_decay", "delayed_nesterov", "eager", "mla")
DELAYS = {
    "fixed3": {"kind": "fixed", "tau": 3},
    "fixed33": {"kind": "fixed", "tau": 33},  # past tau_cut 32: every update is dropped
    "uniform0-6": {"kind": "uniform_int", "lo": 0, "hi": 6},
    "exp0.3": {"kind": "exponential", "rate": 0.3, "tau_max": 8},
}
LAYOUTS = {
    "whole": {},
    "frag4b2q": {"fragments": {"count": 4, "budget": 2}, "quantize_queue": True},
}

MLP = {"kind": "mlp_regression", "layer_sizes": [4, 8, 8, 1], "teacher_seed": 3,
       "teacher_scale": 0.5, "init_scale": 0.5}
ROSENBROCK = {"kind": "rosenbrock_sum", "dimension": 6, "noise_scale": 0.05, "init_scale": 0.3}
# name -> (method, delay, layout, overrides of the matrix cell's config)
EXTRA = {
    "mlp/cgad": ("cgad", "uniform0-6", "whole", {"objective": MLP, "workers": 3, "inner_steps": 3,
                                                  "rounds": 12}),
    "mlp/nesterov": ("nesterov", "uniform0-6", "whole", {"objective": MLP, "workers": 3,
                                                          "inner_steps": 3, "rounds": 12}),
    "rosenbrock/cgad": ("cgad", "exp0.3", "whole", {"objective": ROSENBROCK, "workers": 3,
                                                     "inner_steps": 2}),
    "cgad/fixed33/whole": ("cgad", "fixed33", "whole", {"rounds": 36}),
    "cgad/fixed33/frag4b2q": ("cgad", "fixed33", "frag4b2q", {"rounds": 36}),
    "pa_cgad/fixed33/whole": ("pa_cgad", "fixed33", "whole", {"rounds": 36}),
    "pa_cgad/fixed33/frag4b2q": ("pa_cgad", "fixed33", "frag4b2q", {"rounds": 36}),
}

PINS = {
    "cgad/fixed3/whole": "541fa552b44cf5f0a896c5de7b68890a88655afe8e24635e81ab92b7de0d9d33",
    "cgad/fixed3/frag4b2q": "dfb305446ca277d71933003e9ea17631cf2352356735695aac3b9a972821857f",
    "cgad/uniform0-6/whole": "03f998819b5a55385f9da782c707e14a38ff09b5474669b2d2cfa8f908657926",
    "cgad/uniform0-6/frag4b2q": "0e901cdea1f0c997b8d4eca52f17c3d323c91d8810d79437a3d4bde85dea17ff",
    "cgad/exp0.3/whole": "5f893a458886b49a476458348fe5899ffa81a4f4840d0d0d304a17e5c056ea82",
    "cgad/exp0.3/frag4b2q": "fec45d271a15b1345776dd4653ae769255913493adf4e40c4b15c7b9325a8da9",
    "pa_cgad/fixed3/whole": "84b46c021b6eda133605e5ecc52351ef3d21d53c9225671e4b7c595e4fbea0dc",
    "pa_cgad/fixed3/frag4b2q": "e7df12c08d5fd2d9dc7e0f6d58e055304d09f39944c749a3421fb096c1114b54",
    "pa_cgad/uniform0-6/whole": "75c3448fdc8412d22e88e93eefe60698d0bbbb2d64f4e3bfa9d83ec7a069dcd7",
    "pa_cgad/uniform0-6/frag4b2q": "3f4b6e5e051afd0699f965eeafe477e240b230588a912edd49a235f629ca05a0",
    "pa_cgad/exp0.3/whole": "d7f36d01eb3eb8370edd6cdb1112e7663896eaff58b627509d3f7f9124d53191",
    "pa_cgad/exp0.3/frag4b2q": "175f5118c827cd725c0a5d9c9aea81d2b134d4e39077308e7d808a043f59a80a",
    "adam/fixed3/whole": "44759ea7d51abbd6834028c2ebc3a121a49619b87d4d21ac02bee1e3ba398233",
    "adam/fixed3/frag4b2q": "ae0e0f6832594ee036db3811a32050d5de6d0de5d1d704df8b075dd4cb9d1b42",
    "adam/uniform0-6/whole": "825dbf45242d3936d34d1b286cea6386a461ee4e05b02891ff25e0495395fcda",
    "adam/uniform0-6/frag4b2q": "21f925cad52a4dd21d1d2cf171034be877aa35fa702cc6e020ccfbbd3df5c51a",
    "adam/exp0.3/whole": "bd12c35edb377c3e45aa66c76b508f2d40c5d9b67f9a6c141ab0023255d36b3a",
    "adam/exp0.3/frag4b2q": "2347b2ca229317961113f7f4fc6a64efecffb20e42f3a40b9b0c75dd5013e383",
    "adam_decay/fixed3/whole": "ac0b246c7b2feb06f70b11120fb68c1c22a55c884e496549becc05f78cbb5ea0",
    "adam_decay/fixed3/frag4b2q": "51dd0037ea404f1bd1ce97e6118e582780a61a9212762f2aa3ba5b90b7b20ea7",
    "adam_decay/uniform0-6/whole": "40bb15f374727557d6990f28bf563717e442e72251b1965d9e9ede2a67fe2190",
    "adam_decay/uniform0-6/frag4b2q": "3e7798dd884702ad257103e656e6fa5142dec4310f3d2d2bed5bcf58fbb98fad",
    "adam_decay/exp0.3/whole": "d99d63df6159fc8e6824ddffd8aa168228fdee0ffdef12cd652969469f06c151",
    "adam_decay/exp0.3/frag4b2q": "2ffdac872a9ec5447ea8caa475cd4e0ee20f2e9b79792027c302c174abbbcb86",
    "nesterov/fixed3/whole": "766382b83a83d3816f47f57baa85e1e5dba39da0e6f063b038d52cb6a1494fb6",
    "nesterov/fixed3/frag4b2q": "09b5bed74a99a38deb0ade46c976a09a0ba4fa6c75bde764ef66f076a7b5b4b2",
    "nesterov/uniform0-6/whole": "aecb9c04d83d4c5a15304cf77983e1247308a60ec682ff2dea644e38db73209f",
    "nesterov/uniform0-6/frag4b2q": "e458ac869f06df83188aac0f0dbf96f65eb982d3d6532ccd27d1ccd09d6a7b00",
    "nesterov/exp0.3/whole": "2898d5d873848d467cd1d9ece94a8b89dab02edf32b6777e03035fda1fc4cf4a",
    "nesterov/exp0.3/frag4b2q": "a6c77b70c504fa5a108851acb3fc945ef3ac91818ee6c55963177dc33bf4aa83",
    "sdm/fixed3/whole": "aa4de8f941e43f04504c5f479622c2e2a19cbf092e55e0fdeca7584cbea51107",
    "sdm/fixed3/frag4b2q": "77b979ca45811f6bf65e77ebfcf853544cb436fb89b53b5a9a6232b458eb479e",
    "sdm/uniform0-6/whole": "3a43405fa13dc964064e3d6f7b8df1b75c40f0bbd3fdb533615259dc436977f9",
    "sdm/uniform0-6/frag4b2q": "758ae9cb57e946cdbd81d397fcab942e94cc6b67a13de65571283b128f522932",
    "sdm/exp0.3/whole": "45ad709145d9baab2b83e029e739c022eb4774fe89a7f91cd6f061888ed75ea1",
    "sdm/exp0.3/frag4b2q": "f80df625c698acaef6e65faecd600528b789d0b1f614497bcae34d97be11c357",
    "poly_decay/fixed3/whole": "a2427cacb04c6f31d287e401cfaf1a263dc9c31e32105fb2f1298f25453170b1",
    "poly_decay/fixed3/frag4b2q": "cec679114f165516ed78870d03a5778c8fbb9ce0b80191cab313be372fdcd4a2",
    "poly_decay/uniform0-6/whole": "76070c7ceae8f55ed894c34e4f5638548438f3f48b2b9035f515bed10155751f",
    "poly_decay/uniform0-6/frag4b2q": "7c63392e7560e03e2dac8d509e550f8850ce0f5e06817fc5b275d62447d42875",
    "poly_decay/exp0.3/whole": "d8186741b52cf19f91c371d2c147814f80ef7f361496d44ea0b01c7d6643167b",
    "poly_decay/exp0.3/frag4b2q": "7b771ab71902c40510a5634b22900ecd230ff7ef3321ee3e84eda98de4763000",
    "delayed_nesterov/fixed3/whole": "1985cd9df89e9ca299fbaa556a7d30e90facb0ea968a996a7dc7573440bce86a",
    "delayed_nesterov/fixed3/frag4b2q": "079f76bc752d2f93697b1394a0b0550a5d1d8d548c0902e73d4b1aea36ff9052",
    "delayed_nesterov/uniform0-6/whole": "2efba1d4cbbb3b54f47d9dd08bcb50176efdcfad9e6595505de875a1512b62eb",
    "delayed_nesterov/uniform0-6/frag4b2q": "8090da28d9dbd7c3624367d305bfad1538fe5d971bafd90e8d34e967585ae9b5",
    "delayed_nesterov/exp0.3/whole": "67674edcb73d5fa23573728741e914bc4ce9f09bbf0de3ed36bc6263eb9de718",
    "delayed_nesterov/exp0.3/frag4b2q": "59ffb690c895e3ee431924c1091061bd1cc7e2bf6cc5f522109b38cd14e8af28",
    "eager/fixed3/whole": "91c68bcfbfc6bb57a799811f4d31e7f657bfbe8d435e2d9e55e6e11d9615ad20",
    "eager/fixed3/frag4b2q": "357cc0f1c56f38f9076963024fd43a30dc4c410a12ba9566c75b00fc821ac994",
    "eager/uniform0-6/whole": "d82a5da0dcdddb0ddafb3c42146fe26497ffc7db05226b79a13e893efb042226",
    "eager/uniform0-6/frag4b2q": "4aa4cd21cb9817f675670e38bd1c79088c018e822ad7598820406930bd4bbe14",
    "eager/exp0.3/whole": "0321c72cd700c672f6b0daad72f44de8794c668d993a5ef42c8a16dd327c2428",
    "eager/exp0.3/frag4b2q": "e6e28cbf4397b37f68381e6a8e7344bb1ca1d56243da206333ac3d3a19f88e36",
    "mla/fixed3/whole": "3f4551c5dca465066097c916f7807da19af6b9a214885f4abe78c410feeeb0bf",
    "mla/fixed3/frag4b2q": "49c9cff654203c6c95ad9522b5b3de32812a6b69478ad96d9ffe7f7808c8ddeb",
    "mla/uniform0-6/whole": "48f443086787cf446d421dec5e8715437169c69a014cd4e3fd03e8a09448c9bd",
    "mla/uniform0-6/frag4b2q": "73c026d9890d67533d982860927e0554a253661ac9adf00c008519c24208f5b5",
    "mla/exp0.3/whole": "c536ff72d8a4e2c5709b9280adc24f55973660cf0172017e5916a93fcf1a535b",
    "mla/exp0.3/frag4b2q": "6f74202df8e9e4c8170554f621b83b73e935eca859681f8e47104513d487896e",
    "mlp/cgad": "c92c2723734de387095049a23db2557b44338bb965e3dc6ea3e7990b15426f8c",
    "mlp/nesterov": "662136e344e85d1fbfdbf6567e02a99576eeae3ede8e862cd2b42f3e1388a6fd",
    "rosenbrock/cgad": "b108c36e1e1eb715ffcbb8625b067fc2d1933576cc15fbacac3547b9cecfc2d6",
    "cgad/fixed33/whole": "c1439dac88785105a6566bb327a7785caf192bc2c12af1223d5b7d3930715375",
    "cgad/fixed33/frag4b2q": "05db0aa0882a29501da0fddff59e3778b9af35f4740fc42eb2e05ce029ee8f3f",
    "pa_cgad/fixed33/whole": "7fc87bf9ed1da4302dcdd29dd5e045a8a0539cf67fe04aae606e9742771aa7bf",
    "pa_cgad/fixed33/frag4b2q": "d83d906a1082dc03ae6b89f5c0387e720f4d412a115109f8afa391e5253838ce",
}


def cell_config(method: str, delay: str, layout: str, **overrides) -> RunConfig:
    raw = {
        "version": 1,
        "objective": {"kind": "quadratic", "dimension": 16, "spectrum_lo": 0.5,
                      "spectrum_hi": 4.0, "rotation_seed": 5, "noise_scale": 0.05},
        "workers": 2,
        "inner_steps": 2,
        "rounds": 24,
        "batch_size": 8,
        "eval_batch_size": 32,
        "method": method,
        "delay": DELAYS[delay],
        "master_seed": 7,
        **LAYOUTS[layout],
        **overrides,
    }
    return RunConfig.from_dict(raw)


def cell_digest(method: str, delay: str, layout: str, **overrides) -> str:
    result = run_experiment(cell_config(method, delay, layout, **overrides))
    return hashlib.sha256(serialize_result(result).encode("utf-8")).hexdigest()


CELLS = [(m, d, lay) for m in METHODS for d in DELAYS if d != "fixed33" for lay in LAYOUTS]


def test_every_cell_is_pinned():
    assert sorted(PINS) == sorted(["/".join(cell) for cell in CELLS] + list(EXTRA))


@pytest.mark.parametrize("method,delay,layout", CELLS, ids=["/".join(c) for c in CELLS])
def test_result_digest_is_pinned(method, delay, layout):
    assert cell_digest(method, delay, layout) == PINS[f"{method}/{delay}/{layout}"]


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_extra_cell_digest_is_pinned(name):
    method, delay, layout, overrides = EXTRA[name]
    assert cell_digest(method, delay, layout, **overrides) == PINS[name]
