"""Regenerate the golden JSON corpus used by the CLI tests.

Run from the repository root:  python3 tests/golden/make_goldens.py
The files are functions of the seeds below and of the numpy/BLAS build that
runs the generators; the malformed files are written verbatim.

The checked-in corpus is frozen input, not a build product: the tests pin its
bytes (``dumps(load_path(f)) + "\\n"`` must equal the file).  Do not run this
script in CI or to refresh the corpus: on numpy 2.4.6 / OpenBLAS 0.3.31 it
rewrites two ``A2`` digits of ``hirz_valid_n1c1.json``.
"""

import pathlib

import numpy as np

from adhmkit import hirz, plane, serialize
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid

HERE = pathlib.Path(__file__).resolve().parent


def put(name, text):
    (HERE / name).write_text(text if text.endswith("\n") else text + "\n")


def main():
    d = gen_hirz_valid(GenConfig(seed=2024, n=2, c=2))
    put("hirz_valid_n2c2.json", serialize.dumps(d))

    small = gen_hirz_valid(GenConfig(seed=31, n=1, c=1))
    put("hirz_valid_n1c1.json", serialize.dumps(small))

    # same orbit as hirz_valid_n2c2: a fixed gauge pair applied to d
    rng = np.random.default_rng(99)
    phi1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    phi2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    put("hirz_valid_n2c2_gauged.json", serialize.dumps(hirz.act_gl2(d, phi1, phi2)))

    # different orbit: second seed
    put("hirz_valid_n2c2_other.json",
        serialize.dumps(gen_hirz_valid(GenConfig(seed=2025, n=2, c=2))))

    # breaks the intertwining relations: perturb one C entry hard
    cs = list(np.array(x) for x in d.C)
    cs[0] = cs[0] + 0.5
    bad = hirz.HirzADHM(n=d.n, c=d.c, A1=d.A1, A2=d.A2, C=tuple(cs), e=d.e)
    put("hirz_bad_p1.json", serialize.dumps(bad))

    # fails nondegeneracy: both pencil generators nilpotent in the same flag
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    bad2 = hirz.HirzADHM(n=1, c=2, A1=nil, A2=0.5 * nil,
                         C=(np.eye(2, dtype=complex),),
                         e=np.array([1.0, 0.0], dtype=complex))
    put("hirz_bad_p2.json", serialize.dumps(bad2))

    # fails co-stability: kernel line of e is invariant (diagonal data)
    bad3 = hirz._assemble_from_chart(
        0,
        np.diag([1.0 + 0j, 2.0]),
        np.diag([3.0 + 0j, 4.0]),
        np.array([1.0 + 0j, 0.0]),
        np.eye(2, dtype=complex),
        np.eye(2, dtype=complex),
        1,
        2,
    )
    put("hirz_bad_p3.json", serialize.dumps(bad3))

    p = gen_plane_valid(GenConfig(seed=7, c=2))
    put("plane_valid_c2.json", serialize.dumps(p))
    bad_plane = plane.PlaneADHM(c=2,
                                b1=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                                b2=np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
                                e=np.array([1.0, 1.0], dtype=complex))
    put("plane_bad_t1.json", serialize.dumps(bad_plane))

    cc = hirz.to_chart(d, hirz.chart_set(d)[0])
    put("chart_n2c2.json", serialize.dumps(cc))

    from adhmkit.geometry import ytilde_point
    put("ytilde_n2.json", serialize.dumps(ytilde_point(1.0, 2.0, 2.0, 1.0, 2)))

    put("malformed_not_json.json", "{ this is not json")
    put("malformed_kind.json", '{"kind": "mystery", "c": 1}')
    put("malformed_badnum.json",
        '{"kind": "plane_adhm", "c": 1, "b1": [[[1.0, "x"]]], '
        '"b2": [[[0.0, 0.0]]], "e": [[1.0, 0.0]]}')
    put("malformed_c_mismatch.json",
        '{"kind": "hirz_adhm", "n": 2, "c": 1, '
        '"A1": [[[1.0, 0.0]]], "A2": [[[1.0, 0.0]]], '
        '"C": [[[[1.0, 0.0]]]], "e": [[1.0, 0.0]]}')


if __name__ == "__main__":
    main()
