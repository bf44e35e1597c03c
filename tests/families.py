"""Channel families that more than one test file builds, each spelled once.

Test-only: the file name has no `test_` prefix, so pytest does not collect it.
"""

import numpy as np

from qduality.qobjects import KrausChannel


def dephasing_channel(d):
    eye = np.eye(d, dtype=complex)
    return KrausChannel(
        tuple(np.outer(eye[:, i], eye[:, i]) for i in range(d)), d, d
    )


def depolarizing_channel(d):
    eye = np.eye(d, dtype=complex)
    kraus = tuple(
        np.outer(eye[:, i], eye[:, j]) / np.sqrt(d) for i in range(d) for j in range(d)
    )
    return KrausChannel(kraus, d, d)


def block_channel_4():
    """Measure {block(0,1), block(2,3)}; identity on the first block,
    flatten to the maximally mixed state inside the second."""
    eye = np.eye(4, dtype=complex)
    p1 = np.diag([1, 1, 0, 0]).astype(complex)
    kraus = [p1] + [
        np.outer(eye[:, i], eye[:, j]) / np.sqrt(2) for i in (2, 3) for j in (2, 3)
    ]
    return KrausChannel(tuple(kraus), 4, 4)


def identity_plus_dephasing(d, keep, u=None):
    """Identity on the first `keep` basis states, full dephasing on the rest,
    conjugated by the unitary u when one is given."""
    eye = np.eye(d, dtype=complex)
    kraus = [np.diag([1.0] * keep + [0.0] * (d - keep)).astype(complex)]
    kraus += [np.outer(eye[:, i], eye[:, i]) for i in range(keep, d)]
    if u is not None:
        kraus = [u @ k @ u.conj().T for k in kraus]
    return KrausChannel(tuple(kraus), d, d)
