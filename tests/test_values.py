"""The value-type contract of the records the stack is built from.

Each type compares equal exactly to another instance of the same class with
equal fields (never to a tuple or a subclass instance), a frozen type hashes
like the tuple of its fields and refuses assignment, a mutable type is
unhashable, and the constructors take the same positional and keyword
arguments with the same defaults.
"""

import pytest

from qtsl.f2lin import F2Vector, Subspace
from qtsl.ot1 import Ot1SecretKey, Ot1Signature, Ot1Token
from qtsl.primitives import DsPublicKey, DsSecretKey
from qtsl.stack import (
    OtKey,
    OtrKey,
    OtrToken,
    OtSignature,
    OtToken,
    TsPublicKey,
    TsSecretKey,
    TsSignature,
    TsToken,
)

V = F2Vector(2, 1)

# (type, field names, field values, frozen)
CASES = [
    (F2Vector, ("n", "value"), (4, 5), True),
    (Ot1SecretKey, ("space", "key_id"), ("space", b"id"), True),
    (Ot1Token, ("state", "key_id", "lifecycle"), ("state", b"id", "spent"), False),
    (Ot1Signature, ("alpha", "sig", "key_id"), (1, V, b"id"), True),
    (DsPublicKey, ("algo", "material"), ("ed25519", b"pk"), True),
    (
        DsSecretKey,
        ("algo", "material", "next_leaf", "capacity_log2", "_tree"),
        ("hash-chain", b"sk", 3, 10, None),
        False,
    ),
    (OtrKey, ("components",), (("c1", "c2"),), True),
    (OtrToken, ("tokens",), (["t1", "t2"],), False),
    (OtSignature, ("sigs",), ((V, V),), True),
    (OtKey, ("s", "otr"), (b"s", OtrKey(("c",))), True),
    (OtToken, ("s", "otr"), (b"s", OtrToken(["t"])), False),
    (
        TsPublicKey,
        ("ds_pk", "kappa", "hash_variant", "n_override"),
        (DsPublicKey("ed25519", b"pk"), 64, "sha256-256", 8),
        True,
    ),
    (
        TsSecretKey,
        ("ds_sk", "kappa", "hash_variant", "n_override"),
        (DsSecretKey("ed25519", b"sk"), 64, "sha256-256", 8),
        False,
    ),
    (TsToken, ("ot_public", "chain_sig", "ot_token"), ("pub", b"chain", "tok"), False),
    (TsSignature, ("ot_public", "chain_sig", "ot_sig"), ("pub", b"chain", OtSignature((V,))), True),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, frozen", CASES, ids=IDS)
def test_equality_by_class_and_fields(cls, names, values, frozen):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b
    assert [getattr(a, name) for name in names] == list(values)
    assert a != values and values != a
    for i in range(len(values)):
        other = list(values)
        other[i] = values[i] + 1 if type(values[i]) is int else b"x" if values[i] != b"x" else 7
        assert a != cls(*other)

    class Sub(cls):
        pass

    assert a != Sub(*values) and Sub(*values) != a
    assert Sub(*values) == Sub(*values)


@pytest.mark.parametrize("cls, names, values, frozen", CASES, ids=IDS)
def test_hash_and_assignment(cls, names, values, frozen):
    a = cls(*values)
    if frozen:
        assert hash(a) == hash(cls(*values)) == hash(tuple(values))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(a, name, values[0])
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == cls(*values)
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], "changed")
        assert getattr(a, names[0]) == "changed" and a != cls(*values)


def test_defaults():
    assert Ot1Token("state", b"id").lifecycle == "fresh"
    sk = DsSecretKey("ed25519", b"sk")
    assert (sk.next_leaf, sk.capacity_log2, sk._tree) == (0, 0, None)
    assert TsPublicKey("pk", 64, "toy-8").n_override is None
    assert TsSecretKey("sk", 64, "toy-8").n_override is None


def test_repr():
    assert repr(F2Vector(4, 5)) == "F2Vector('0101')"
    assert str(F2Vector(4, 5)) == "0101"
    assert repr(OtSignature((V,))) == "OtSignature(sigs=(F2Vector('01'),))"
    token = Ot1Token("s", b"\x01", "fresh")
    assert repr(token) == "Ot1Token(state='s', key_id=b'\\x01', lifecycle='fresh')"
    # the hash-chain tree is left out
    assert repr(DsSecretKey("hash-chain", b"k", 1, 2, [b"x"])) == (
        "DsSecretKey(algo='hash-chain', material=b'k', next_leaf=1, capacity_log2=2)"
    )
    key = Ot1SecretKey(Subspace.from_rows(2, [2]), bytes(16))
    assert repr(key) == "Ot1SecretKey(n=2, key_id=00000000...)"


def test_vector_order():
    assert F2Vector(3, 1) < F2Vector(3, 2) <= F2Vector(3, 2)
    assert F2Vector(3, 5) > F2Vector(3, 2) >= F2Vector(3, 2)
    assert sorted([F2Vector(3, 6), F2Vector(2, 3), F2Vector(3, 1)]) == [
        F2Vector(2, 3),
        F2Vector(3, 1),
        F2Vector(3, 6),
    ]
    with pytest.raises(TypeError):
        F2Vector(3, 1) < (3, 2)
