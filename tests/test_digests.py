"""Pinned digests of seeded results.

Each digest is the sha256 of the deterministic JSON of one seeded item,
drawn with the ``instances`` generators: 40 criterion-5-shaped implication
audits (matrix text and audit JSON), 40 epigraphical rays (set
derivative, scalar Dini values per direction, segment critical parameters),
and the minimal and infimum condition reports at every domain point of 40
ParamPoly, EpiVector and FiniteInf functions.
A change that is meant to keep every result keeps these bytes; a change
that moves one on purpose re-records the tables with ``python
tests/test_digests.py`` and says which items moved and why.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from setlattice.calculus import scalar_dini, segment_criticals, set_derivative
from setlattice.instances import (
    random_grid,
    random_parampoly,
    random_pwl_vector,
    random_workspace,
)
from setlattice.setfun import EpiVectorFunction, FiniteInfFunction, Polyhedron
from setlattice.vi import (
    CandidateSpace,
    implication_audit,
    infimum_at_point_check,
    minimal_check,
)

COUNT = 40


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def audit_digest(seed: int) -> str:
    rng = random.Random(f"pinned-audit/{seed}")
    while True:
        ws = random_workspace(rng)
        xdim = rng.choice([1, 2])
        f = random_parampoly(rng, ws, xdim, max_normals=rng.choice([2, 3]), max_pieces=2)
        pts = random_grid(rng, xdim, rng.randint(3, 6))
        dom = [x for x in pts if not f.eval(x).is_empty]
        if dom:
            break
    audit = implication_audit(f, rng.choice(dom), CandidateSpace.of(pts), ws.directions)
    return _sha([audit.matrix_text(), audit.to_json()])


def ray_digest(seed: int) -> str:
    rng = random.Random(f"pinned-ray/{seed}")
    ws = random_workspace(rng, rng.choice([1, 2]))
    xdim = rng.choice([1, 2])
    psi = random_pwl_vector(rng, ws, xdim)
    domain = Polyhedron.box([(-2, 2)] * xdim) if rng.random() < 0.5 else None
    f = EpiVectorFunction(ws, xdim, psi.components, domain)
    x = tuple(F(rng.randint(-6, 6), 2) for _ in range(xdim))
    u = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
    y = tuple(a + b for a, b in zip(x, u))
    return _sha(
        {
            "derivative": set_derivative(f, x, u).to_json(),
            "dini": [str(scalar_dini(f, z, x, u)) for z in ws.directions],
            "criticals": [str(t) for t in segment_criticals(f, x, y, ws.directions)],
        }
    )


def optimality_digest(seed: int, check) -> str:
    """The reports of check (minimal_check or infimum_at_point_check) at every
    domain point of the space."""
    rng = random.Random(f"pinned-optimality/{seed}")
    while True:
        ws = random_workspace(rng, rng.choice([1, 2]))
        xdim = rng.choice([1, 2])
        if seed % 3 == 0:
            f = random_parampoly(rng, ws, xdim, max_normals=rng.choice([2, 3]), max_pieces=2)
        elif seed % 3 == 1:
            f = EpiVectorFunction(ws, xdim, random_pwl_vector(rng, ws, xdim).components)
        else:
            f = FiniteInfFunction([random_parampoly(rng, ws, xdim, max_normals=2) for _ in "ab"])
        space = CandidateSpace.of(random_grid(rng, xdim, rng.randint(3, 6)))
        bases = [x for x in space.points if not f.eval(x).is_empty]
        if bases:
            break
    return _sha([check(f, x, space, ws.directions).to_json() for x in bases])


def minimal_digest(seed: int) -> str:
    return optimality_digest(seed, minimal_check)


def infimum_digest(seed: int) -> str:
    return optimality_digest(seed, infimum_at_point_check)


AUDIT_SHA256 = [
    "61f58c82e7cc83de56c21065febe20417931df3deea5a6f0fe9dace4943777cf",
    "9c8056c80a1272abef166a73e136ada212e5afea0df3abd78618be4ae6ef966b",
    "41bf5df34f9e842f4003b298ccc8a17bc3443c5a1e1a8f958906a9c48d23d6b4",
    "8572472847fe5251575258252a40511a037409b60d6abbed0a62c51e6e5b2ab3",
    "a6e6438d11aedc133389730133b21d8cc63a64561ecabd72ba66fa1ee7f04691",
    "da145ea3a807497922942473ec4ba99079bc7c517312ef860dc517aaa57a4f28",
    "80c671f1f216a1781864d7c68d0bf1b9555af454a35b66357efc98ef1e4ad39e",
    "c6459a5ba3e83042e92bf87fb288d3b5fb99a14eba32e5ae9f79eebaff3f7834",
    "a58f6fdd40a20c12c111fa554748debfcbe0d57f4473c33945abff3b2d0a3e47",
    "0e43b743f1ac614c9efda7fbfd67f79762cc1bd3a457798d171fada72cbbfafc",
    "5ab99135c5b9a57e4e177409c44071a55b22a4ac64027cda5449a4e0d0dbbc02",
    "dd60f800b5ed24f1b3327b95ba51c5ff2b21f9aac3d15e91061982e6704eec8f",
    "4be076bb2513bbe1d8f8faaecdde5a249a0998243e474ef71f62f85a4d40acf1",
    "2921505497bedbcfe7e787ba8b18349e64d7c9549cd35aab095c41cd82c026ea",
    "357b9be7fa83e57533be8f9a058f14ddd5bf06df38cdd0a4dd7b833e6b751d01",
    "25ff12a1881f19f1e6f5936d9b4bffee5999b99078aa485b3218c838df8bb833",
    "45311b48f12ef312d1643662d217eede06f90c578187401a745e928aa9864fcd",
    "a04e41a336128d0cec7b8c973aaeac82363eae62e8d068d20be41eee7e4d0a62",
    "0e209f5aa151827596851d41e3dffbd97f894c020812beba3654708526cc9d8d",
    "205f56fdf1dea9e89fd4876fd6ddf200d61c4eb14a3780c161bb9bd03366ebb6",
    "eaee6d2f8613acb4d131bcd42283adafd2b65afe24eee6ad5ab9887c9374e31d",
    "1a2b6e5867648383451af0578638c0cb9c1aa896e2ffbd63aba41a20645237f4",
    "3468b4c0c2c241b847e1ae05dabf33da450f3be28b2773884835235063f4bce9",
    "24a4963c6f9490c9c9c8ea0bc3875ef1504891397809f516722851d4851f81f1",
    "f0ff61530873be47e40fca48bd7eec337e3a046e38b18c80b6c26a705413c1b9",
    "b4bb5929e8f3ac526d489c9bfa770c82d7d46440cf72b3a4a09202665752d4e4",
    "91efc33350af1772482212a89220fc7e21574972d4ef6acb3aa9af19b8de65cf",
    "4d05e9c11247a7ce11e896e8b7133e19a5951d8eacd1be6f12cff1aac211dcdd",
    "288b2361d8f0bd489c2f09c5973f93d484b77ca77170074e94e979d65d5b3c67",
    "72b259e0c2ba746e2e6cde475eed1b92c57422550afe7d6f08ee89a69d33df8c",
    "11ce203ea33b1c6d34ca3e36647125cb736a464b6b41669bb351a635528f65e5",
    "310fc3261265be7b28e013d0a74088db0e4fa6e7ffed05823fe0fe70b877d21c",
    "1ae8c34c7b71bf0d67f2cccb46745c41f1815142ab4efec0bd13a865bce54da1",
    "4e062fd1b7daaf537b68d3c543c492bc6e836b8028015b8acf6f68371e83386d",
    "c362567cf44c66d0607bb842285e78bf339f82126a0f3585a5fb5f9bf07cf91d",
    "f6ccb5645752cffacf3488874d812d8936187b5907c3a65dedff92ebfdc0fab4",
    "c9b70869bef9b98b396dd0e5e005e4b5572c710812543d49570b8393d7dea128",
    "8c8306ba6e56af24fea0ff198f63691581226fee0fc2527bb5e064910c4d53c4",
    "1ad00f95fc4ca23704a980eceb75202c70a1091ffa6882f95e4627b5ae6e6cf1",
    "43385fa076ad7a04e42352dfcfe0c56eff22adb173c8054db36cd68fb5fa514b",
]

RAY_SHA256 = [
    "5a87cc842524fbf09530dc6dfc584c1238e2844abdb0781c3d5c006e88651bdd",
    "d396de01ef18808cae2b58b3826b79029fddc951e499f810bc4cceb46eb8b258",
    "a184e12c522160dd1c3067405a645afa3aef72bb2e2b4e31d6b12d15721b277c",
    "e135178c264ba85810002de83fc1ef728c4fd10c8887a76376dd52aad16b08f9",
    "6d522425d9f0ea13e2f8b7791293051dbdd77718e8a218afd04c4a9c5a60d749",
    "71c63707f786f299ac63772ae277fbe73c497407f6f4a33c8e812cc0164cd6cf",
    "f6da926a1e2ba6ac1288eeace40a86527953424849d2bfa4d90048c05cb6bc59",
    "cf24914e90a3651a6a7fc6f2a76fd4ef3f8431f151fe93d62dc2fda008671c4c",
    "d396de01ef18808cae2b58b3826b79029fddc951e499f810bc4cceb46eb8b258",
    "7297feac1550d261329d02daa34e194ab834732467205278f5ee5fc893fec379",
    "6b705aefc84e6fa2ef56a492fefebdda4de1eca7931941addf8a54bea525a0fd",
    "2607d9a0c5a74217dd8918b039f03035aaaafc565fdd963d2169329e5d864a43",
    "da72f323b9bec154bf40b7811298e4af12c1edf8fe58c731ec6044a4dfb61582",
    "bbcf2d4fc917bcbff94ccdc7cc9eec97968edc4b274cbf869157d9ff93c6d352",
    "a7f2872889f14c1a1acf17bb6ef68bf15abae864fa2c681462391a4dddfaeb78",
    "103a1b2b7120ffb2d476857fac1669568bb7f466a3f81b490ac725b510455714",
    "59614ffe771ac41a5e710fbfc9ae2f88a9e9eaafb0ce7bb8a9df48fa3f8cc847",
    "7a914c637cee05b00eabdcf2dc968027e46b493068cddf719a1213ce3ae8f84f",
    "20758fe864e606e490a32b3db922e059336ac1e5ed110f132da256c000b4c4a7",
    "4b4d51b9f953f2801850cd9d03e27a7f9fd6db3213a4e246c29de32b015627f1",
    "37ffbef52b91381dcb660ec9769b69c48ca01861bd156f0b2b19cf6d5f6c7577",
    "6a188964f867f0f94fda6d9023bd4743329fab3b7ad9c4d2b6a1ba704fa7e159",
    "f4d2395d7143f9e64d293e5ecb6e8b3bbec9c188a62ba44b9ec817763851cd44",
    "6a899ca63848f10c3861d334777142f4d255348b21ff28a70b3584874770f2d8",
    "80e5f35acd2fa72b319c502e1bd150892aca6f96953e8f49ae2f6e00ee75bbb8",
    "0471a34712107c15216075e4408994e7eccda85aa527f542648fe2a9d2b45419",
    "450d68aec3fc6a49961a4829a52560ea94a4976196ac6f23c245574e3fa87557",
    "6d13209b2128d080f7d56a1efff17970773f6095ae0d757fe67d3c1f06c8002a",
    "d625be89ca0997d3763b5b0129f5011979b83efae6c2f259657ac9198612d6d7",
    "fe3a5626dc130525ac4d21eb911c92b4f15644645c3c2aa6273d0b173d5c2900",
    "359b631e128076f9f3f1675fc9873b42313bf3ba01ebcd64badbc54a4f562e66",
    "d625be89ca0997d3763b5b0129f5011979b83efae6c2f259657ac9198612d6d7",
    "59614ffe771ac41a5e710fbfc9ae2f88a9e9eaafb0ce7bb8a9df48fa3f8cc847",
    "f4d2395d7143f9e64d293e5ecb6e8b3bbec9c188a62ba44b9ec817763851cd44",
    "6741034edac43d2fafdf20c936ac95829b950e0607051b480f8fe162c5ca76e5",
    "98e301f44262d2f8d9cbb3eaf797234c05910c90df2b7f3cdabbfdad06ae2c68",
    "929444a69ff5c963f0dc33ba76f69fc406836da4520909348ad06f42e9cd9da4",
    "59614ffe771ac41a5e710fbfc9ae2f88a9e9eaafb0ce7bb8a9df48fa3f8cc847",
    "7e060ca60b0d2c8b58a1c1f129d30c0797242350ef97399b13c661fd71d7a15d",
    "359b631e128076f9f3f1675fc9873b42313bf3ba01ebcd64badbc54a4f562e66",
]


MINIMAL_SHA256 = [
    "4ce10213d24de24fbad92bc1381ee57b2e1d2ccb3664e6e4f73edf45bd0653cf",
    "b00238fa38719cc851a9adecb3186a00b124fe71da4278e2039ebf51c4cba049",
    "38ef60fb8e1a0c32acfa8cb17f548da1602e53e89d1a339769f42a56ebafc760",
    "f9e7c0293edecb96696e491725ba796278c3a7844e89c27acc8240a4fe01e628",
    "ba849950d289bea5eda754ddd18ea8be4092a8f41c799f399387e140f5b860b5",
    "ba5b2dad35166ef25263477c6a8d1864ab7b9bac36d4b1fc8c7d26d7d10e579f",
    "4040f90e51de5bd146ea00eddbc8754c169a068155843ac32d4a36498b4d4724",
    "c130758fc74e24ea63f9c22f5a6b440189c9ea6fbbf8fd670f96c78b0e3ebf56",
    "01b8af0551286c287531e3adef1b41dbf7ac766472711d8b9fe67ad41b3e9826",
    "d3e50ede3969d117552012fe6923aa170ea7fe48f3944e65c07aba5525e9d590",
    "c774246c816d209786544e281c069ba86d25e2dff77c3193bde66e7fe17e1311",
    "05b1950f821812748e1d81bb7c75f6ffb1455d5b166c4e53afc222d1f9a2f8b8",
    "ba849950d289bea5eda754ddd18ea8be4092a8f41c799f399387e140f5b860b5",
    "81bee184605f41ea1e87723a69b17a6066cd4045a37470db5bde26fbc49cd2bc",
    "ca72024a76deeca967f82edce0d8456ad0f9087609181435391a8fc136e26b2f",
    "cbd2e68ce9da08c71e06ffe8821f18fa97b1e9530fc7d7c0e5319a6f1726a576",
    "99b0057619285a645d4a0ea6a1bf357fc52c1e7441965399fc55eaaeeec1ad31",
    "c322b540fb8bcc1540e74e95368f91c3b0585a89c9cea32ddef4e4e2cd05121c",
    "e3a6b7e933be5c8b20489cf3edeffba0ec1b21104cfa0d42bdd4524f0691be31",
    "60110d8342a4c021f8bf17a5bf53fb49fe8f54f5616fe6796c4b925592e38f77",
    "c774246c816d209786544e281c069ba86d25e2dff77c3193bde66e7fe17e1311",
    "e354986a1cf8f7bb5d92650982f7585f7297d55fdee49587fd5777343e16f2a8",
    "1fc5309b23922f5d30d0657af761441ef71031e8edc375a46f53252f46d937d0",
    "5aa91aa30ffc5a26c23d2c9d72fee0f5c4f02969670b032376e144851eb63cbd",
    "0ac799980f65d26497cecaedadc286cca75ba51523117aedf015163e52b4486f",
    "edfe82d976379a38427829995f319e0642ac2f7ebbea540f760ecad606f160f9",
    "81bee184605f41ea1e87723a69b17a6066cd4045a37470db5bde26fbc49cd2bc",
    "4b7eb96d202c265bf3683c1b798fd8e1c49867df2b1134ee3ba2a1be8ed84f31",
    "c774246c816d209786544e281c069ba86d25e2dff77c3193bde66e7fe17e1311",
    "99b0057619285a645d4a0ea6a1bf357fc52c1e7441965399fc55eaaeeec1ad31",
    "fadc702af1e3c718c80e4b1c4d77c4c6620efdcd8f9ea75b26717eaddbd76c8a",
    "82cc0ee2419a7de30439ec132c07c042281cf08ea1f9676b4845f3eb34f11003",
    "713c68042af604c2499127ddf7190ee637f60e174a5c9737842351799485ffd3",
    "ba849950d289bea5eda754ddd18ea8be4092a8f41c799f399387e140f5b860b5",
    "b0cabcad68600e8e98c06581ae6aa9bf213077f26578261a63c51f9bed12592a",
    "81bee184605f41ea1e87723a69b17a6066cd4045a37470db5bde26fbc49cd2bc",
    "1b8feb4f5c5073e108e3f56e32b1f5a4d1e8552f1424d62b1658c5f802888341",
    "fc0c71a86e2c6d7964790b7db3ceb1defe648425db543765c2978f709527c951",
    "610645d43da7d81e3ab9feff3f5c59f26c255d3ab01034a37653e3e126345185",
    "ba849950d289bea5eda754ddd18ea8be4092a8f41c799f399387e140f5b860b5",
]

INFIMUM_SHA256 = [
    "18a37eb33370ac37a54de784ac2f5d2ac169197a4cb41fae901318105dd2964b",
    "0873efc17745ccb5d44746a4947c86645fc4f7e91eb4f7bcc381e36ba2a3d843",
    "7e5301efa66b774f0c6e6881fa84882d58de1ef7dd04f4d0f14b55bd1a0cc035",
    "2141e2ab98f7ab6c61cafd498d1c98ff7c78de0158ffe41aa1af3e5ab087fc43",
    "e1d29e5112b574d3b96ddb556c6a8298cfe14b3533c0810cf885f6437af27df6",
    "97be85196c202d22a7a57773a1f806100ca79301e51d7113d835d05efdf99502",
    "0982165e2f95e17db9709c49b41ac878d2520ed35f0ddc9e56595914a41a0b8d",
    "79e2f029ba81b4be1fdd30f09218293c1ac943b850d7f552442a5658a24ae12f",
    "1ba16876e5a7da91b54751e34bf0b75ef85b4501a8831e6497473ee04203604c",
    "38a61b543d24f1a57fc188f7b97d14e345bc859db64b2289c813311f1231f868",
    "beedca893b40f165006ce8f815ffd47c98eb20fb3c40774257d29a5b1ef6334e",
    "3e8266b9afa9121141dd7a4699813927dd55d2efc527bfa2a37640b065474079",
    "6e885c1d36fc64bf7640a430b3d590c767f30aae5b1d11bb795c17b152316d28",
    "5540f3b5c5e97c043c49dcbcccfcdfeffd6f3cdae119d8abd479c2ffee499fcc",
    "e3c669f772dfdca01244197441b5cbce3dda7c34dd65820c4ee3d6eab2e706d2",
    "37c405612b4259d95b5416faabf7dfa6cac7262b6b3448e26a9a9c3574d4ab45",
    "f75428bb492e14eed66159a4ea8a4f6f3877e08df40fa09858cd270d6ef58b44",
    "b9fca9ccd31d63b0ef71c72441f77a57004af67e5b9e3bdce5a0644b27663596",
    "24c9790bd7662963ea2a0aaba52421b3b981bbfb2346c2cfcbc52c78c205660e",
    "6a2774e15ec78212a0e31910b5a4fa8599012f7e92143343ed192e29c6a75b47",
    "0bf28d48bcd1a1a0857cea5aca4ff381f420dbb484833617224405df5a9bf3f8",
    "5406411d84f7c5447b653334384ad2e223221b25cfffe01d6aec23dda21eaf63",
    "7324d5c539cf1d0415487beb2a04e79e6cb89f1cb7ca0794e5f89a1b1f7df871",
    "40f3a048163098ba42b7ab143413776d2f2c03bf35ce2e427f92626129d19067",
    "009e1e5f81014fc15107f7b8f3cc38011016c6a27ac6e5c797f84d0f0d3cbcab",
    "10c0dd7a2d70cb84e07e2f291d34d9ef3936fc0444403d509b5ae43ed2583e17",
    "009c5055e7f31fb2162488480509a172de0a74d5e0dad1063e4091162512d18d",
    "3dd5d8bdb11160c4dbb4f83c8556af1b31e1817c0718b457d4b71bdc91f4cac7",
    "6872726558db2099411b539015c4453cc0998fb781d05037cfe356a52b85577d",
    "2c273664c274b066997d12755599faf6216c1cdea50e2f778e175fc5231e9c2d",
    "ea5f40fb541f3366a3706fe898b5c28abd7f7ddcc5e60f38ba6667f0a6b085b0",
    "880ebbd4d2bd1717b26bf1524af554e1167dc30b7ab9126f606bac6b659afc6e",
    "89b84ff862edd42f2b52be85ca9a1a6b34ef0f0517f413b9e9449057fa959fa5",
    "6e885c1d36fc64bf7640a430b3d590c767f30aae5b1d11bb795c17b152316d28",
    "e95bfd425804a6138d14a18fe9f21dc6743bb35c57bdfec63a22449ae40e87a9",
    "009c5055e7f31fb2162488480509a172de0a74d5e0dad1063e4091162512d18d",
    "a3df4d0dc86bdba867426aa4d4d0746fa8155d8a9850ec9b0b35d00df5db46c3",
    "aa0dc56ad006ded6880a2beb319e685c391200ca415cf6454e8311a92d68c9ed",
    "8f11f7847af683f8eab6f070d396f7ce51b4947c29469d3122d1a1dae50f695b",
    "c74e25ac78b2741e1cb2137329fc2264c9fe346c36beb12c52c13d6a73a6d5f3",
]


def _moved(digest, pinned):
    return [seed for seed in range(COUNT) if digest(seed) != pinned[seed]]


def test_pinned_audit_digests():
    assert _moved(audit_digest, AUDIT_SHA256) == []


def test_pinned_epivector_ray_digests():
    assert _moved(ray_digest, RAY_SHA256) == []


def test_pinned_minimal_digests():
    assert _moved(minimal_digest, MINIMAL_SHA256) == []


def test_pinned_infimum_digests():
    assert _moved(infimum_digest, INFIMUM_SHA256) == []


TABLES = (
    ("AUDIT_SHA256", audit_digest),
    ("RAY_SHA256", ray_digest),
    ("MINIMAL_SHA256", minimal_digest),
    ("INFIMUM_SHA256", infimum_digest),
)

if __name__ == "__main__":
    for table, digest in TABLES:
        print(f"{table} = [")
        for seed in range(COUNT):
            print(f'    "{digest(seed)}",')
        print("]\n")
