"""Golden stdout: sha256 of every subcommand's output, text and jsonl.

The digests were recorded from `cli.main` before any library code was
deleted.  A change that claims "same stdout from less code" keeps every
one of them; a change that means to alter output re-records the entry
and says why.
"""

import hashlib

import pytest

from mdbs import cli, gamma, greedy, joiner, seqkit

FINAL_CYCLE = '1,2,11,9,13,5,10,4,7,14,3,6,12,8,15'
MODIFIED_15 = '000100110101111'
DE_BRUIJN_16 = '0000100110101111'

# argv -> (exit code, sha256 of stdout)
GOLDEN = {
    'graph --n 5': (
        0, 'b42fc60f4f6bba14e4b92c6869a220992bae0312e3a5cff36a5084f1dc1d074e'),
    'greedy --n 4 --v-init 1 --format text': (
        0, '3cf3e48d45a27ed0035c5319e1395c96a471d01267d99c62cd1f0727b3ad6daa'),
    'greedy --n 4 --v-init 1 --format jsonl': (
        0, '393dabcab21367914324d467f69128e8a8e91bb35afaa74d365b014e37cfd4bd'),
    'greedy --n 6 --all --alg complement --format text': (
        0, '651052bc0c43e6bf984d1ae156f283cc04a215312101da7ecced7fa3e7e58b87'),
    'greedy --n 6 --all --alg complement --format jsonl': (
        0, '01cfd80c748121dfea8aca5642b2172e4941d61bc94b86fb59ddb83c58750487'),
    'greedy --n 6 --all --alg double --format text': (
        0, '7ab6284af4ee274b607d1d0c2c7985119ffc2f02b90cd10b52bfbd173f1152fb'),
    'greedy --n 6 --all --alg double --format jsonl': (
        0, '30de918541eb961934af1dbbc9738105f39fc469405b5a68d3052257802b9860'),
    'greedy --n 9 --all --alg complement --format jsonl': (
        0, 'bad6eb6d7e51d3f9837d72182d09a382cae485e8fea2be3cd70733d42f4a5540'),
    'greedy --n 9 --all --alg double --format jsonl': (
        0, '535c7887a5828d06b1bdecc3e1f0eb0bbb95af4caa12f94515e149c416a5220e'),
    'greedy --n 9 --all --alg complement --format text': (
        0, 'bc763a98e7e275e79ebc57fa5e6d7352e327c8b1126f7bb054db4ae3995280da'),
    'greedy --n 9 --all --alg double --format text': (
        0, 'b6a5737c4f172bf4c153e0629efbd534ebb08d5b6d3009fe84180796e488f84a'),
    'decompose --n 8 --seed 1 --format text': (
        0, '086b592e625594bfa2f2b97c330a3041ceb5f9c2a0bac71416cc1cb816dd3311'),
    'decompose --n 8 --seed 1 --format jsonl': (
        0, '073853ff52d42874c52fab3c733aecb04c3a0db573f6f9ba139fb4b02003dcc5'),
    'join --n 4 --order 6,4,14 --format text': (
        0, '6f985e633044d20061aee4eaaeed0dfbb164cd1f103a0d3361f54f06e448d1bc'),
    'join --n 4 --order 6,4,14 --format jsonl': (
        0, '025deb9df251b1b0147e091995a2b0fe339b53ad734c9a27b3cabda9d3e4ddd4'),
    # 7744 spanning trees: the rows pin the order in which trees are listed.
    'join --n 6 --seed 208 --limit 20 --format text': (
        0, '62b626807c865a27ab4f4e3b5756fb5ad635af33d1fe4f1bbd4731fad95432fe'),
    'join --n 6 --seed 208 --limit 20 --format jsonl': (
        0, 'e0180505f8e569fbc8c44268e93ac458f645ae68cc1208f6458c27b1ec54de2b'),
    'join --n 6 --seed 208 --format text': (
        0, '111ee589ec72b99874311346b6ec8219760731f6e75e98d646cef714194b4fbe'),
    'join --n 6 --seed 208 --format jsonl': (
        0, 'aee9b8407c083cf9e0e8d59e208ef86c6d5773bdcb445d7dadb8ec6eda5ad9bf'),
    # A limit of 0 or below prints the header and the footer only.
    'join --n 6 --seed 208 --limit 0 --format text': (
        0, '122bd9dbc8346fbfcfd684028e8fc8e892388160d43c05c947fbb6b022460001'),
    'join --n 6 --seed 208 --limit -1 --format jsonl': (
        0, '0c253c5e508b2273f0880040da8d63961103e1a826e472d5d27aca23f193802c'),
    'enumerate --n 4': (
        0, 'ec0e18f33ddd30b4119b36b401471b37fea56b1f635382d85f068201965ecf0a'),
    # All 2048 order-5 cycles, and a prefix: the rows pin the search order.
    'enumerate --n 5': (
        0, 'de2d6bc5e5fa470bd67b76e1e77510a46399105f7efbab13a25b78a74685512c'),
    'enumerate --n 5 --limit 7': (
        0, '8ce9eac072ce45fe3176310a483a8701f5f4b0382ede0b37ec995a87bddb980d'),
    f'minpoly --n 4 --cycle {FINAL_CYCLE} --format text': (
        0, 'b60049b16c8d0c4d9a3f9dfc3c350110c99546a49ac97d745265cd69258a2a4a'),
    f'minpoly --n 4 --cycle {FINAL_CYCLE} --format jsonl': (
        0, 'c86c254015c6314a05afa4784c485ab9462fabb48fd6a6b0a0c7ca8b9710b142'),
    f'minpoly --sequence {MODIFIED_15} --format text': (
        0, 'fd571d143d0282e67139b6ff1a14a511dd6b69e8b96d1aae0d83d47270af70d5'),
    f'minpoly --sequence {MODIFIED_15} --format jsonl': (
        0, '9ed0c4f36d7251dfe3b199a54195ba33bbee66a5a44eaea169de5e39943687ac'),
    f'verify --n 4 --cycle {FINAL_CYCLE} --format text': (
        0, '76f54debf99d88db5027b81b61c6fbc8ae2e538c8209d6afbc1631cd74d6e291'),
    f'verify --n 4 --cycle {FINAL_CYCLE} --format jsonl': (
        0, 'f39e3ee02d22d53b06572d9bbc8baf6a6f7231d7f39fc5ece9b56b49c0decdcd'),
    f'verify --sequence {MODIFIED_15} --format text': (
        0, 'e61abfeb776b42177efeffc2b0af9a01addc50395303013a269fbfca5420106c'),
    f'verify --sequence {MODIFIED_15} --format jsonl': (
        0, 'f9aa82887b3895b1c5376bbcb2c32bdfa696560f4f18a81fce52666197c7c4f4'),
    f'verify --sequence {DE_BRUIJN_16} --format text': (
        0, 'e9c3f71b011eb2e3990beb929bd66ebe1abae83c3b4a3b9539a8a3c95be8437c'),
    f'verify --sequence {DE_BRUIJN_16} --format jsonl': (
        0, '35bfe77b64a71036ac135e89fb9489004bf56f2a2fa0c769a1751043c19a9a05'),
    'tables --n 4 --which 1': (
        0, '832e384904c6c943f650e3d8a2cbd0a03c2f19f6252c150de80ef8cbd071c0df'),
    'tables --n 4 --which 2': (
        0, 'ea3238cc831d9221d83c120852fd9676549437dc5a51e1eeecf7add144a588ef'),
    'tables --n 4 --which 3': (
        0, '31c5f8845e3ecdd326d27290f2331ef73a707c99ff83f974b804ba03e7199a57'),
    'tables --n 4 --which 4': (
        0, 'd6eab272007842c4210b8ebf7019e75c55ca746cd3fb53f1c72a6c3f06ec2fe2'),
    'tables --n 5 --which 1': (
        0, 'e09b90ce84dbb9cbb246df26d836676e0a86d39e937fa0487c134570c3de3f48'),
    'tables --n 5 --which 2': (
        0, '71b223059f645763443a9df709db8d508168bcec3d095c2dc2d88480e3841b02'),
    'tables --n 5 --which 3': (
        0, 'ec576fc14dbe8540455e404a95fbd922a9ff415b6ecb0995cff7a02e5c48350f'),
}


def test_every_subcommand_is_covered():
    assert {argv.split()[0] for argv in GOLDEN} == set(cli._HANDLERS)


@pytest.mark.parametrize('argv', sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv, capsys):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[argv]


# The joined order-10 cycle of seed 0: c_H, d, f and f* have degrees
# near 1020, so gf2poly's kernels run on multi-word ints.
LARGE = {
    'text': (
        0, '8091a9798f62b2c693ef1a40b3e99648874a715660b1acfca11e0a12d8009f7c'),
    'jsonl': (
        0, 'af03b063b6a8d3f529c299eb94ac7436154b49526595a822962e160cf7676dba'),
}


@pytest.mark.parametrize('fmt', sorted(LARGE))
def test_large_order_minpoly_matches_golden_digest(fmt, capsys):
    cycle = joiner.join_all(greedy.psi_decompose(10, seed=0))
    verts = ','.join(str(v) for v in cycle.vertices)
    code = cli.main(['minpoly', '--n', '10', '--cycle', verts,
                     '--format', fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == LARGE[fmt]


# --sequence runs on the same joined order-10 cycle: its labels (period
# 1023) and their de Bruijn form (period 1024, which also reaches the
# span-form check), so Berlekamp-Massey runs over multi-word ints.
MULTIWORD = {
    ('minpoly', 'labels', 'text'): (
        0, '8091a9798f62b2c693ef1a40b3e99648874a715660b1acfca11e0a12d8009f7c'),
    ('minpoly', 'labels', 'jsonl'): (
        0, 'af03b063b6a8d3f529c299eb94ac7436154b49526595a822962e160cf7676dba'),
    ('verify', 'labels', 'text'): (
        0, '577cc35c554c7a06341dc02559aa93b9f28aec801b6c9a73cd2ae1cc7db3c001'),
    ('verify', 'labels', 'jsonl'): (
        0, '41aae34e5dfb1716512555e0fadae5e1f832336590ac6c973993e23b2c9060e5'),
    ('verify', 'de_bruijn', 'text'): (
        0, 'cb431de672dd3ede34c3922ed25843a921fe6b8471b4be48af84c71c90cbd143'),
    ('verify', 'de_bruijn', 'jsonl'): (
        0, 'e9a6520e96bd613c019e63bad8ddf87cafd432c4bda70e3ccddcebe2dd637de7'),
}


@pytest.mark.parametrize('key', sorted(MULTIWORD), ids='-'.join)
def test_multiword_sequence_matches_golden_digest(key, capsys):
    command, which, fmt = key
    labels = gamma.cycle_to_sequence(
        joiner.join_all(greedy.psi_decompose(10, seed=0)))
    seq = labels if which == 'labels' else seqkit.debruijnize(labels, 10)
    code = cli.main([command, '--sequence', seq.to_text(), '--format', fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == MULTIWORD[key]
