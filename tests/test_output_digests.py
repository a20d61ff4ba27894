"""Byte-exact output of fixed commands, pinned by digest.

Each entry is a ``schubflex`` command line and the sha256 of its exit code,
stdout and stderr joined by NUL bytes, run in process through ``cli.main``.
Any change to the text, JSON or DOT output of these commands fails here, so
a refactor of the poset, sweep or certificate code can show it keeps every
byte.  Re-record a digest only for an intended change of output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from schubflex.cli import main

DIGESTS = [
    ("hasse e6", "ec9145185e4b40d7e9fd68646f2facfebcbeacb027ebdcf387901e9e71d6af39"),
    ("hasse e6 --json", "973b2962a957705c5facd539b7262bc71966af3881645b3cc3ac2d63fa8db9c6"),
    ("hasse e6 --dot", "90331a950d44aba458904f3faae80bbd0c8a6fdb314366162ee2e70b709ce5aa"),
    ("hasse e7", "921e7b0f1f89d97cd0959c0a1bfd74ba44f98d0c980842b89b74a9c0d3a26efc"),
    ("hasse e7 --json", "499dc1d3d6c973dfb4fd421ceb6bf96e168ad9d16096b9acbbe76b36ec7d77f8"),
    ("hasse e7 --dot", "1dc53bd4136885a51e0ed2c8e50e59a01ef6a10d0b17e2bb237b41943f56b821"),
    ("hasse gr:5,11", "cb643ef9d85ad9dfbedbc7a2dac8a90c150cb0d29b5dac8caf16177e2277fd17"),
    ("hasse gr:5,11 --json", "960fd20137debd96f24916cd1410ec90002006135ef0bdf7c4119b75c8fe01cc"),
    ("hasse gr:5,11 --dot", "4d38ceaf9f2fde8aea4c03364a523070ce2ca8490e5ee10ef040d3725a97f638"),
    ("hasse og:9", "412df831b2aa40afbae43cd8d3113989270897f40d273c6f508c44b17e0f3528"),
    ("hasse og:9 --json", "26c9a99274950ca2ed51accc21639b58ebfb65e94848bdd9ace748a731a68359"),
    ("hasse og:9 --dot", "47e364f8f002eacfa8b2ca6cfcfaf32cf92f53c3d74158ea6632bd585257bfa2"),
    ("hasse lg:8", "06bfbd1449db8336c21c81d750a84bcf7f34e90fa7a25e3925674e7792e3f998"),
    ("hasse lg:8 --json", "55af64694b2a26c1af02ec72925c1deedbd9800da97f44389676df6277e96c10"),
    ("hasse lg:8 --dot", "71951113b2e93b2c03b2fde9b5ea442eec2a47975f5e4c3f33018b39c90caa9c"),
    ("hasse quad:80", "d159d59ab5338accde059f2f6c9a681cdb2e08ac69394e5865fee6b24bebe878"),
    ("hasse quad:80 --json", "c5ae29a110205c9398ed13ef443fa7c97d8f952ad02ecebdee73fb24d1be47cd"),
    ("hasse quad:80 --dot", "ffd4917bf87697aed5e16b34cfda12a06b828463978a80e7ccba2a651085a311"),
    ("hasse gr:2,40", "fb24e00255a1f285d1b624fa4972c727e214de1e0b8f167bf6fff5f42a399e74"),
    ("hasse gr:2,40 --json", "ce424a16c6966a6e554c7225ad2edb7c3b491cfc86014224d9bdb930eed9683b"),
    ("hasse gr:2,40 --dot", "ce207445874661cb61c1b160b46210e1eac990221dc76dcf1d9147b4bc294c43"),
    ("tits e6 6 1", "3f8b5d4e5019d431b7db16b56ac33a962b7f931f8c8969360c22cfa8ac395411"),
    ("tits e6 6 1 --json", "a396ef91a69d2b071ff1687fc85de4430132dbca6c9dd5e9cd718c4583791451"),
    ("tits e7 7 6", "0abf447758ed065798ab6e0d6890e770bb6e83ac45ab3bed6eafd1b082b5ac87"),
    ("tits e7 7 6 --json", "3668b9139d70b414890abe058c7cdcb4d14a5d72a33eec887fc2f184172015be"),
    ("tits d4 1 4 --json", "77e437f62c2d519da751aa4887081be87c5ac135e9902ffefcabee381b336e7d"),
    ("verify all --json", "10a7478470f67325c7947873da78e682befb551b53eb59ad51ee7f874f0380c0"),
    ("verify table1", "bcd4ef3674ba787fd575589002b59ad6f79edeafb569d6c0f1068f06a4bc6347"),
    ("verify e6", "e1654fe23173285c227b385f5a2b85afea44c0396ab220f74b2af25c62aa8eaf"),
    ("classify e6:12:45", "15f6ec10b78230113da9ab08576c96fafd708c84b4ade898be06ea75a2fdbabb"),
    ("classify e7:22:5586", "deb56b81e65f813ab4a94c675ff635f28dce88f42acb09887871fd90363f1c60"),
    ("classify gr:4,6:1,2,4,5", "9f55780c3741af2f2336c8306a578bc7fce05aaf60c1d1fa0525b904c931cb21"),
    ("classify og:8:1,2,5,7", "73bd6bda378c452046b43aa0fe2659ac9461a3af64c17c78efd4306553e7ece7"),
    ("classify lg:5:1,3,5", "e26ccb78fa3d2f45265d220ef61ebd45cab1131aef5d4019b68d20f2cc10f7ff"),
    ("degree e7:27:13110", "68b17a230766826613ca7fb8163c2e31c338b455a654204cf3477d9f209758ae"),
    ("degree og:7:1,3,6", "f5fd7cc71da00e02e7800fb05fde429f287d9d75eaf46ec98cb1a202a868e266"),
    ("dual og:5:1,4", "87e88879ca2d84265235a424a6c42671b14b2ac9833304383baeb2d4f9e1cccf"),
    ("dual e7:22:5586", "46f8c8b5027c6a440a2d3991184f069e2daa2195d95ab31100854df61d83cf63"),
    ("dual quad:7:linear-2", "4d5177cdfdc45771ff2214c4cbe2bb77b4ae0ea236654675d702c7dda39625bc"),
    ("classify quad:7:linear-2", "881f8fe1b1c89000980635b0dce17edc3136b4db9cabfb355fafd7a3a6e2baec"),
    ("classify quad:6:max-plus", "2c9be882a5e584cdc428978e6f5936ce36ddcc7597a635d064c377e5816327e8"),
    ("classify e6:30:1", "317019e3de7261d6462034592309b2e4e52689728c7e25cb70b23b36241e8958"),
    ("degree gr:3,7:1,4,6", "d9b877ced18282e72021744fee875b9b864272d28e33f68a886f60958135fe03"),
    ("degree quad:6:max-plus", "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de"),
    ("degree lg:1:1", "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de"),
    ("degree lg:3:1,2", "8c7d6b17c999dbd88108aa21193f18c0db5810ec2dda53a184263a4070b88ad2"),
    ("degree e6:9:9", "97ccaf6ae69890037f507178625b8ca91175d12f3c5d3912347ae11c59bee944"),
    ("dual gr:2,5:1,3", "e303a05732cd2d042ff6a6bd2a0fb81bf727aeb15dba693f89f5106897192d72"),
    ("dual lg:3:1,2", "f5dd08b8c2833f93da56931ffa9aa981db48ab8a8c596fd161a770043974b55c"),
    ("dual e6:9:9", "65c392935b14a23cad8643111a2edb645761d8946cf00df6fe81d4f07377fcc2"),
    ("hasse gr:1,300", "d3a11a314602fc5d00a7d3136cac44a391585916e80f263bc070545d67bca2bb"),
    ("hasse gr:2,4000", "ca2b1d47c00712193451e49c2c1b8a8b29ce98f9cae7215a14f0f97011e5eb0a"),
]


@pytest.mark.parametrize("command,digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_output_bytes_are_pinned(command, digest):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(command.split())
    blob = f"{rc}\0{out.getvalue()}\0{err.getvalue()}".encode()
    assert hashlib.sha256(blob).hexdigest() == digest, command
