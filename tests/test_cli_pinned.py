"""Pinned CLI output: sha256 of stdout and the exit code of a fixed command set.

The set is ``h8-report`` and, for each built-in group, ``double``,
``fusion-verify --group`` under both profiles, and ``twist`` with subgroup
``auto`` or ``center`` and the ``trivial`` or ``nondegenerate``
bicharacter, with ``--check-cocommutative --group-likes``.  Each runs in
JSON and in table form, in process through ``cli.run``.  ``PINNED_CENSUS``
adds the censuses of the benchmark (``--rules all`` at 192, 216 and 240 and
the nine golden-list censuses), two custom rule orders, ``--improper`` and
``--n`` at 240, and one census table.  A change that alters any of these
bytes on purpose re-pins the digests and says which commands changed and
why.
"""

import hashlib
import io

from hopfcensus.cli import run
from hopfcensus.fusion import PROFILES
from hopfcensus.groups import BUILTIN_GROUPS

PINNED = [
    ("h8-report --format json", 0, "8c20ce49e3881ad9c3959e9a2baf770eb4865cbd3ce244cb185ee0e5aef56087"),
    ("h8-report --format table", 0, "02b9076ba4120052762fd26abfe9b74cee59c761caa786cf0e5c11f6eb641f14"),
    ("double --group D3xD3 --format json", 0, "a28919e8fb122fce7ae6b552b66ef9e9365c4087b4101f13f9b30221a675baf7"),
    ("double --group D3xD3 --format table", 0, "1904b9c0804243fdcffd3da7437206a0d21cde27f9c93cca4ed193598c74b2e5"),
    ("fusion-verify --group D3xD3 --profile hopf --format json", 0, "e9cc0f31da052636512d844114a31fea4ef3288ed68e269072ad091283f19b20"),
    ("fusion-verify --group D3xD3 --profile hopf --format table", 0, "8450742d8197111ae3e0660bb505a9c7b9dd957010321624d5d47b1460ea1b5d"),
    ("fusion-verify --group D3xD3 --profile basic --format json", 0, "8de4728f522e1370d6934768134b64c0f7ef23ecf503abec45954666ad7dbf23"),
    ("fusion-verify --group D3xD3 --profile basic --format table", 0, "7fb943e75ba1812cd17095b35af3cdc4400f1b674783e58e303e85ae28cce722"),
    ("twist --group D3xD3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "b76bc8e1d008332817b79054e9ba973db58632eb93a9420388f28005cafe0c32"),
    ("twist --group D3xD3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "5b4e02593b7397b02c2501b9cf32f7baead0abbce0c8548bf4055929664603a5"),
    ("twist --group D3xD3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "fdf3aa7423933f8eb12e53d025382e3b753e7f21db1a885aa6948d0d42b78751"),
    ("twist --group D3xD3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "8ee7ed28c1e05db63f6463e57fa514193323db9eaf76e8ae7684c6a873fd27bf"),
    ("twist --group D3xD3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "0617cc746aff9d1bb761fd2c870c792cd4f27cd282395e78d5dcdd310fb37775"),
    ("twist --group D3xD3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "c71adca9ab69f7fdc9c39e5b209ccd9ad2c935a62e4efc173092f0f7b705b4f6"),
    ("twist --group D3xD3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group D3xD3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group D4 --format json", 0, "864438260ebce46e5d07f3105afd2fa2e83948e1bb38988b2b08b3cd6bc796bc"),
    ("double --group D4 --format table", 0, "14540890f62c6552723bf6c77b717754409a7f24436bcfb5392be29f2385a6eb"),
    ("fusion-verify --group D4 --profile hopf --format json", 0, "e138a558d08aaa0173c70777b666ee9d41eaa5a7b8e52bf2d5532b547275bdab"),
    ("fusion-verify --group D4 --profile hopf --format table", 0, "8fbfdca8038881f5ba61632cdd3801e1aabffc555e9a5cde185705f8a4287127"),
    ("fusion-verify --group D4 --profile basic --format json", 0, "496086c8d7d5b2ab35fe6aed8de60eb493bf95e945b8ca9ad391570bc2d9a1d5"),
    ("fusion-verify --group D4 --profile basic --format table", 0, "b70c017ff5b8e787670fd7a9accd5ce42c9ef9332bd8ac12f206a10eb611bca8"),
    ("twist --group D4 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "3a92ac6c3c190f4aa0d674de5090c523239b97a5c1e66551f96b365298cc80ea"),
    ("twist --group D4 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "6d657f6200f742613ee92b8399a8a869315a4e2d891ed0ce9af3d4c3beedc9ef"),
    ("twist --group D4 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "db32587e2b1fa7803710788112e276559ea753f262d871bb82e604b1b6ca7cc8"),
    ("twist --group D4 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "12b94a822fa3078b96ecb0865f1e05117f5829d2869a019816bf56d264bd8c52"),
    ("twist --group D4 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "ee7869e02518a9522d28ba3e35264e586c536448eec7fde22524390f46c246d4"),
    ("twist --group D4 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "f285b3d707a42268bfd9850b41073e100ab053236f7e4829445f32de79e7e8aa"),
    ("twist --group D4 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group D4 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group G12 --format json", 0, "c50d7845f7eae99346a28771ec9a0fa273aa8bb7b4c5d2fa57dd9f94cdb8b136"),
    ("double --group G12 --format table", 0, "fa013b7b023c83333e3deb17d16ee8f08dc5f04b582dba03c9ecab02ad749394"),
    ("fusion-verify --group G12 --profile hopf --format json", 0, "86c0e39815f682d17969d2d5cd9104f46ec1ece8df3fcc4a995a6c370c2d665e"),
    ("fusion-verify --group G12 --profile hopf --format table", 0, "2729156f6f1fad992ae83106e908684699b3cdd3b97c925488ed05f29f4585c7"),
    ("fusion-verify --group G12 --profile basic --format json", 0, "ce9671fef5765dbda2aa016c556ee5b2bdaf6235d7c0850f462a433d4481a605"),
    ("fusion-verify --group G12 --profile basic --format table", 0, "6e8d281635719e5f643738524bef919b4c4f456e6c1383ee9614306e080309a7"),
    ("twist --group G12 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "6c3ddfd392e3e23c7a4c950eee9c6320bf8f588a5c7d88e8f2022ccebeb5db8b"),
    ("twist --group G12 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "2b7ac4871dcbe0bc042753772e3b8349d640cab4dc2a689e0041a2b9a889a4a8"),
    ("twist --group G12 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "d43aefbfeaf5677af035619eb912cb29b5b74526be944c90f53a4c8ba0fda3dd"),
    ("twist --group G12 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "c0930198944db1859812f487a97381989c1309a040684f1f2bd88433589d9ca8"),
    ("twist --group G12 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "dee151778d406a78905ea779d23936452d0776782a6bed2988e54183cabe6bdf"),
    ("twist --group G12 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "7de8b379df6aa74c96fef9d90bcb9e4ae9757c983450afc79880b280d2eaed89"),
    ("twist --group G12 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group G12 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group G18 --format json", 0, "4f4bb95d26bf25db846f67f78c49539f68e8d0c28e3dc1599142986583e864d6"),
    ("double --group G18 --format table", 0, "acf701be6871ab91cd7dc87c45dd1e55867085582c039b44d8ee3d3f2a021ac8"),
    ("fusion-verify --group G18 --profile hopf --format json", 0, "547f49b16db9b08a61b999d488e2ac7e0a982b80b2c0f42840222c0651def6bc"),
    ("fusion-verify --group G18 --profile hopf --format table", 0, "f57a33b3f31913b8f695917cf3a5e222060f96c65f744b37fbb2cd2188a89c96"),
    ("fusion-verify --group G18 --profile basic --format json", 0, "797b606d384dca8898fc5b9122332a857eb7314d7b4dca10ead199750dea2873"),
    ("fusion-verify --group G18 --profile basic --format table", 0, "ae09a4d8a05e2d1d45896d6c91ab4fd7f94407ed2ad4af5b703ba1a5bba42083"),
    ("twist --group G18 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "b8b42fab28667020b1a388c611f50b45288f1484816bdc21c8c0738adaee4a12"),
    ("twist --group G18 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "ceb0cf667d382fba5c49467520898c7d03ec624837c4cba6a51faaec7e8af08b"),
    ("twist --group G18 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "4c20915c378876d60e471f3e0000e4f8fe19ffc352baa6ab5382dfbe1befc48c"),
    ("twist --group G18 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "32b12fb666131895e8e25548bee87add2003e6b8dea60719d66cddb8f78f4e05"),
    ("twist --group G18 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "74667961919b1f7ee4462c87dd141488a205aaa9b6e27c50f76875efcc6556d7"),
    ("twist --group G18 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "52b81d5884fa6f0a4723972e1cecc636ddcc39309b72153737f9b351b56a3681"),
    ("twist --group G18 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group G18 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group Q8 --format json", 0, "1dee95a5e85479ed0e2b3c5dc4df6f2a84cd1ecf9bd6d93b332683e3f6d36222"),
    ("double --group Q8 --format table", 0, "ce916879c057a745b5cd2f27fdd5e527a79730f63fbf5aa707e1456be88e5e58"),
    ("fusion-verify --group Q8 --profile hopf --format json", 0, "e8b1c163281feb28f9b413b7504f5003f30f29e2f19c6fd6e5749519a0744b96"),
    ("fusion-verify --group Q8 --profile hopf --format table", 0, "9ecb69d886d0825eeec4cc8813c0db8c8f99563e13e5215c3c77940d56d4c02b"),
    ("fusion-verify --group Q8 --profile basic --format json", 0, "f091d58c92a4bb424f577ea94473e783b6193410929d94993ecf13845a42eaca"),
    ("fusion-verify --group Q8 --profile basic --format table", 0, "e6f823b0da07594d962609d3eea13d20af63c5e317a322963a5603f28e807462"),
    ("twist --group Q8 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 2, "3d452c345aeb00a614a7e376bd96f4bdce71d98dfc7906b66fc28fadbf17dcad"),
    ("twist --group Q8 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 2, "3d452c345aeb00a614a7e376bd96f4bdce71d98dfc7906b66fc28fadbf17dcad"),
    ("twist --group Q8 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "3d452c345aeb00a614a7e376bd96f4bdce71d98dfc7906b66fc28fadbf17dcad"),
    ("twist --group Q8 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "3d452c345aeb00a614a7e376bd96f4bdce71d98dfc7906b66fc28fadbf17dcad"),
    ("twist --group Q8 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "54fb46afa6a73579dda0595e1ad491c0219b3536a57d9b4ce5b315405739cdc3"),
    ("twist --group Q8 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "7729d727619b4fc7eb5fd886e8043eafa8b19271c3053a34d93b283d42fd68f9"),
    ("twist --group Q8 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group Q8 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group S3 --format json", 0, "bc85401eb0fa1c27f147f0a9586711f57456041a94fb7d31499c6dd2e208c37e"),
    ("double --group S3 --format table", 0, "7dd94ed243f1a6cc652d2d20c7d2f7182154d2065c9673d1c34d11e55140ae87"),
    ("fusion-verify --group S3 --profile hopf --format json", 0, "345c5f5ac4716540a7ca38a15b8fb200c46fdbd54c17dff2cdc31663235abbc4"),
    ("fusion-verify --group S3 --profile hopf --format table", 0, "0304339790de0ce8cd6011a65cfba45078e6de094e25967500e6e08ee4886e8b"),
    ("fusion-verify --group S3 --profile basic --format json", 0, "24be5c5cfa87000cbe7bd39867ed46d907b70984570cdd1a317f8186a22d8b10"),
    ("fusion-verify --group S3 --profile basic --format table", 0, "a281cb599073aa351cff2a0f9dc57d710277c7c97040d446c38b119d2b363ffc"),
    ("twist --group S3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 2, "4fc528e63bfc5cec31a357fbe694c1a8c2f795cd05761af6530027e73c430510"),
    ("twist --group S3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 2, "4fc528e63bfc5cec31a357fbe694c1a8c2f795cd05761af6530027e73c430510"),
    ("twist --group S3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "4fc528e63bfc5cec31a357fbe694c1a8c2f795cd05761af6530027e73c430510"),
    ("twist --group S3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "4fc528e63bfc5cec31a357fbe694c1a8c2f795cd05761af6530027e73c430510"),
    ("twist --group S3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "db0877b6d9a3375fe9743aa316d801d7134865242138ee6107419e847eb083db"),
    ("twist --group S3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "5f378d7f1fe0df8bac43f33147da32c91c3dc13faf790a06506951b30497616f"),
    ("twist --group S3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group S3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group Z2 --format json", 0, "f6171fd323ebc264c7c70bcb322cd800c2684aec5fb6ee798916a74351f1722d"),
    ("double --group Z2 --format table", 0, "4c9fcacbbf66880b45f9ff9a7cb4bd0d142cb842c8cb81b841e0d6a9ed270f6d"),
    ("fusion-verify --group Z2 --profile hopf --format json", 0, "493098ff73b1661618d63beb5c48353dd93770985cc560f568e05dba6834f044"),
    ("fusion-verify --group Z2 --profile hopf --format table", 0, "96913b1e125ba969ac77efaaeaa0625379ef0ee7d67ed96e3aa7462db06408f0"),
    ("fusion-verify --group Z2 --profile basic --format json", 0, "804208a9da8b76229dc59f5d639fde6f4b8359e26400632d5b28298e6e7206b4"),
    ("fusion-verify --group Z2 --profile basic --format table", 0, "5768790da8804888d09e7cd848d805b6d1f78e9241db5ef48d6adb79472f9bc5"),
    ("twist --group Z2 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 2, "aaa4f0281ae7896249ef7423da3e618a2a54e9281455ac5535a8d6796521672c"),
    ("twist --group Z2 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 2, "aaa4f0281ae7896249ef7423da3e618a2a54e9281455ac5535a8d6796521672c"),
    ("twist --group Z2 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "aaa4f0281ae7896249ef7423da3e618a2a54e9281455ac5535a8d6796521672c"),
    ("twist --group Z2 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "aaa4f0281ae7896249ef7423da3e618a2a54e9281455ac5535a8d6796521672c"),
    ("twist --group Z2 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "67049096c404ac2fc8736a2832019891dfa37ecf8d76c0e74343fbfaf1501f19"),
    ("twist --group Z2 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "5acc189de68a2ed506f80acab25525a7177994daca310228cc5c0359d7a49060"),
    ("twist --group Z2 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group Z2 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group Z2xZ2 --format json", 0, "e709e883cfc8d03ae870afb0ba5d72505ee80ac39cde650a05362ee4c211a9e2"),
    ("double --group Z2xZ2 --format table", 0, "36d0f73d79bf7b6e7eac7fb2ffd82d56f5c1ff2f896a3e3701e8a3ec6c6f685b"),
    ("fusion-verify --group Z2xZ2 --profile hopf --format json", 0, "fd0bd3ed95a015805977ea11af077b6148d9ec87e250924526d6d1feceb22d55"),
    ("fusion-verify --group Z2xZ2 --profile hopf --format table", 0, "b122937d6ef6c8522944458dee5a72e1fdaa53b659c83a0a363eb6e8a24e7ea8"),
    ("fusion-verify --group Z2xZ2 --profile basic --format json", 0, "1e91c370cebc6e2be72045612dbe8f23afdaaeddcdd56db9079192ad06ddc6ee"),
    ("fusion-verify --group Z2xZ2 --profile basic --format table", 0, "0f215e388fa8f6c424fd87e4be60a3329fd5de3900b6d5908ea265112034306b"),
    ("twist --group Z2xZ2 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "7366e681168c599e73dd6bc8121c8a3bc636f1f55e1313aeae5237c6eb3af448"),
    ("twist --group Z2xZ2 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "a1a111840079d1391b5ae696275fc2bd1e524850724e05a2a362c0751a31a0f4"),
    ("twist --group Z2xZ2 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "9f93217dc49cedb3fde0d5dba248e980fe25412f5395fedf0a77cb53e8de92ec"),
    ("twist --group Z2xZ2 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "a8b53608c355e442cbaa5a4bd2cf92aa9d4ed319693e594e4a37e6053b5fcc55"),
    ("twist --group Z2xZ2 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "4948c7a62c8b6e31951da2332590e6dc2c19133387477e2e0260193f6e4bf2ff"),
    ("twist --group Z2xZ2 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "a24b562f996a304b19b1c9d5fa7f6bba8f09b3af5aa41e68f09c688a66502168"),
    ("twist --group Z2xZ2 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 0, "227b0266c3dffec46388f09c950b4bb11c8e56c8bd791892b68dee81e467647d"),
    ("twist --group Z2xZ2 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 0, "1e79a2bff80bddae99d9017c0358b00234e72141c371b2fd2932f40bf8b7fb39"),
    ("double --group Z3 --format json", 0, "28c394b3a5bf628bd42d92b0c82cc5b6e3b90e8439201bf0c2155f9c05187148"),
    ("double --group Z3 --format table", 0, "16a83f94f5dab3e99f3f5cc6ffe280e45d907dcf05b38078e6489ab0a70cba69"),
    ("fusion-verify --group Z3 --profile hopf --format json", 0, "885da6f357eac80bf12c0567ce9ae2ea478b5a5aab2198d93615f6b234b28fa3"),
    ("fusion-verify --group Z3 --profile hopf --format table", 0, "f858e2293b306fc4e96db08052b2bd31af459a1e2ba026a72ed5819b293ef5f4"),
    ("fusion-verify --group Z3 --profile basic --format json", 0, "5826e5660dd8d1772473a0280263904505c82aa4a92641174bbb4f8d442050ce"),
    ("fusion-verify --group Z3 --profile basic --format table", 0, "38c8115c02256298810dadbbd452348940f6776ce0763daa0e27323da6d7b4c4"),
    ("twist --group Z3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 2, "7c82a66a0d84bcb7ff88de7428c768c95c7fbc65ad039c180ee3b18ba6cc8ffd"),
    ("twist --group Z3 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 2, "7c82a66a0d84bcb7ff88de7428c768c95c7fbc65ad039c180ee3b18ba6cc8ffd"),
    ("twist --group Z3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "7c82a66a0d84bcb7ff88de7428c768c95c7fbc65ad039c180ee3b18ba6cc8ffd"),
    ("twist --group Z3 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "7c82a66a0d84bcb7ff88de7428c768c95c7fbc65ad039c180ee3b18ba6cc8ffd"),
    ("twist --group Z3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "0cabbb55763bae8ccb12a69a64795a78ac6aab290673c55d0b0504018144e1ae"),
    ("twist --group Z3 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "fd6e35982ec2a00678c2055b02add90c4f69012e4eb0bb054bc2badbe68cc7d4"),
    ("twist --group Z3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group Z3 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("double --group Z4 --format json", 0, "9bcfc2d8ee00dd692c2b5e7ba359872a4df42e5e5d081b344bba903a82c91cca"),
    ("double --group Z4 --format table", 0, "e13af61b48c172415afa28c2b8f0720a782f343efbd15de0e6250dcb00296b8b"),
    ("fusion-verify --group Z4 --profile hopf --format json", 0, "68f89753aa2bd843c1a1b859131ff7c61d3fade108ece08af0f01f2f7dba116a"),
    ("fusion-verify --group Z4 --profile hopf --format table", 0, "5b04b014d8a7e00b207d5373e4d03b02fa384fb83e203fc990d61a3ca44ef61e"),
    ("fusion-verify --group Z4 --profile basic --format json", 0, "b6451701072d60df0038333b37864e9228a16c3f3d968a55677e38af274287fe"),
    ("fusion-verify --group Z4 --profile basic --format table", 0, "a71b4de1bf9e932c42e162df1bc9fdfbed900fa4c589b2fb17fd1c18110d6e41"),
    ("twist --group Z4 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format json", 2, "30d5696b9c8e440dc114fc7ac8c4dd2693368952fe8c362814aa34beb8a4b95e"),
    ("twist --group Z4 --subgroup auto --bicharacter trivial --check-cocommutative --group-likes --format table", 2, "30d5696b9c8e440dc114fc7ac8c4dd2693368952fe8c362814aa34beb8a4b95e"),
    ("twist --group Z4 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "30d5696b9c8e440dc114fc7ac8c4dd2693368952fe8c362814aa34beb8a4b95e"),
    ("twist --group Z4 --subgroup auto --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "30d5696b9c8e440dc114fc7ac8c4dd2693368952fe8c362814aa34beb8a4b95e"),
    ("twist --group Z4 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format json", 0, "37b0cc4942d1ebf8e22dd736c10f19ad4b5ba7d5bd59ffe6b9d42eaf040c4a5d"),
    ("twist --group Z4 --subgroup center --bicharacter trivial --check-cocommutative --group-likes --format table", 0, "67083ef47de2cb5af5af2ec79358026beeed1cc40ea254a80122764b0d361d4c"),
    ("twist --group Z4 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format json", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
    ("twist --group Z4 --subgroup center --bicharacter nondegenerate --check-cocommutative --group-likes --format table", 2, "0785331808d233af4fc5ae82c857d5897407044df1d1e035a62bb08a0a172b25"),
]

PINNED_CENSUS = [
    ("census --dim 192 --rules all", 0, "4863e4a7a7cb4f5637c02b54715e5d0e34e65ef20036e850a3fdb12bc5989680"),
    ("census --dim 216 --rules all", 0, "7e47ecf93650a5ce8f3bc15d9fa6d070175a16957bd570df7e6e6652ae9666fd"),
    ("census --dim 240 --rules all", 0, "2a4cd5660fdb3cf42361d3c978ef54bf5c3da89792cf4afcbbf1a9ecf8a1003a"),
    ("census --dim 60 --rules R1,R4,R5 --n 1", 0, "c75e619acd5effd04a14059f518adee55f7b5220d40b2cf039467b806b8a2d40"),
    ("census --dim 24 --rules R1-R5", 0, "2edc0551d0081ee342e1ba075ca021b8919fa800ba9ef37876753449c80fa7f3"),
    ("census --dim 30 --rules R1-R8", 0, "fe3f072d2c856105e32000bbcb225b01d68ffe293f9e554fa05731c25bdd7de1"),
    ("census --dim 42 --rules R1-R8", 0, "4a74dd47977646f3fb4f944e5d14db64948466e358f78eb5d9a71871e0279eca"),
    ("census --dim 40 --rules all", 0, "5bcead02a85736039fe6f7e92a6516ee431c359f55a0e6561a6b5acd0e82e1a3"),
    ("census --dim 56 --rules all", 0, "8935b62c09eee5380640fbefcc1dc65c63110208cc49c96b8f9c6c3435e340e8"),
    ("census --dim 54 --rules all", 0, "b20e745f1c4b4b16ed021803e9698f1ce068689f0f985811c2831ca83bb9808e"),
    ("census --dim 36 --rules all", 0, "ed2eb7a4e142278d23074c457418b1b3e17bf79c8c8d1a159435a4c1480e32e8"),
    ("census --dim 48 --rules all", 0, "3994918f63eacac2944f356b040c32a753fb17288710769a9533880b705fd2b8"),
    ("census --dim 240 --rules R2,R1", 0, "32361c7b55b4ae4c28886d18429d60206715c081a9caa8eda09fcbca71cd1549"),
    ("census --dim 240 --rules R1,R3,R2", 0, "918986849141b1442a00b402ebaed6c816ed38f8e2b04b9566834c52e3e75cec"),
    ("census --dim 240 --rules all --improper", 0, "70a6d666fef04551714eecd2ef507f1f5a4e77e085ce93f2218e263c25ee27ec"),
    ("census --dim 240 --rules all --n 7", 0, "6b5e3c24e8ba877d3319c1bcefe0e7418ce944d01663d24d5503949b6e1d8c71"),
    ("census --dim 60 --rules all --format table", 0, "d4192d81a8b4716ee297019437c386fc98f62ef655f19501c67e84fd8a09401d"),
]


def _changed(pinned):
    """The commands of ``pinned`` whose exit code or stdout digest moved."""
    changed = []
    for argv, code, digest in pinned:
        buf = io.StringIO()
        got = run(argv.split(), buf)
        got_digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if (got, got_digest) != (code, digest):
            changed.append(argv)
    return changed


def test_pinned_set_covers_every_builtin_group():
    commands = {argv for argv, _, _ in PINNED}
    for name in BUILTIN_GROUPS:
        assert f"double --group {name} --format table" in commands
    profiles = {words[i + 1] for words in map(str.split, commands)
                for i, word in enumerate(words) if word == "--profile"}
    assert profiles == set(PROFILES)
    assert len(commands) == len(PINNED) == 2 * (1 + 7 * len(BUILTIN_GROUPS))


def test_cli_output_matches_the_pinned_digests():
    assert _changed(PINNED) == []


def test_census_output_matches_the_pinned_digests():
    assert _changed(PINNED_CENSUS) == []
