"""Classical building blocks: hashing, signatures, MAC, symmetric encryption.

The hash and signature layers each come in a vetted reference flavor and a
self-contained flavor, so the package runs with no external cryptographic
dependency at all.  The deliberately weak short hashes exist to demonstrate
how the stack loses security when its hash is breakable.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from functools import cached_property
from random import Random

from .record import FrozenRecord, Record, set_field

__all__ = [
    "HASH_VARIANTS",
    "hash_index",
    "hash_bits",
    "hash_eval",
    "hash_kappa",
    "DsPublicKey",
    "DsSecretKey",
    "ds_keygen",
    "ds_sign",
    "ds_verify",
    "default_ds_algo",
    "mac_keygen",
    "mac_tag",
    "mac_verify",
    "enc_keygen",
    "encrypt",
    "decrypt",
    "DataError",
    "KeyExhaustedError",
    "MAX_CAPACITY_LOG2",
    "hash_chain_secret_key",
    "hash_chain_tree",
]


class DataError(ValueError):
    """Malformed serialized material (bad index, bad key encoding, ...)."""


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    return h.digest()


# ---------------------------------------------------------------------------
# hashing with an explicit sampled index
# ---------------------------------------------------------------------------

HASH_VARIANTS = {"sha256-256": 256, "toy-16": 16, "toy-8": 8}

_INDEX_MAGIC = b"QTSLH1"


def hash_index(kappa: int, rng: Random, variant: str = "sha256-256") -> bytes:
    """Sample a hash-function index; the index encodes kappa and the variant."""
    if variant not in HASH_VARIANTS:
        raise ValueError(f"unknown hash variant {variant!r}")
    if kappa < 1:
        raise ValueError("kappa must be positive")
    salt = rng.randbytes(16)
    name = variant.encode()
    return (
        _INDEX_MAGIC
        + len(name).to_bytes(1, "big")
        + name
        + kappa.to_bytes(4, "big")
        + salt
    )


def _parse_index(s: bytes) -> tuple[str, int]:
    if len(s) < len(_INDEX_MAGIC) + 1 or not s.startswith(_INDEX_MAGIC):
        raise DataError("bad hash index header")
    off = len(_INDEX_MAGIC)
    name_len = s[off]
    off += 1
    name = s[off : off + name_len].decode("ascii", errors="replace")
    off += name_len
    if name not in HASH_VARIANTS or len(s) < off + 4 + 16:
        raise DataError("bad hash index body")
    kappa = int.from_bytes(s[off : off + 4], "big")
    return name, kappa


def hash_bits(s: bytes) -> int:
    """Output length r of the indexed hash, in bits."""
    variant, _ = _parse_index(s)
    return HASH_VARIANTS[variant]


def hash_kappa(s: bytes) -> int:
    """The security parameter recoverable from an index."""
    return _parse_index(s)[1]


def hash_eval(s: bytes, message: bytes) -> str:
    """Digest of ``message`` under index ``s`` as a '0'/'1' string of length r."""
    r = hash_bits(s)  # at most 256: one SHA-256 output covers every variant
    bits = "".join(format(b, "08b") for b in _sha(s, message))
    return bits[:r]


# ---------------------------------------------------------------------------
# classical digital signatures
# ---------------------------------------------------------------------------

try:  # pragma: no cover - presence depends on the environment
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

    _HAVE_ED25519 = True
except Exception:  # pragma: no cover
    _HAVE_ED25519 = False


def default_ds_algo() -> str:
    return "ed25519" if _HAVE_ED25519 else "hash-chain"


class DsPublicKey(FrozenRecord):
    _fields = ("algo", "material")
    algo: str
    material: bytes

    def __init__(self, algo: str, material: bytes) -> None:
        set_field(self, "algo", algo)
        set_field(self, "material", material)

    @cached_property
    def _ed25519(self):
        # parsing the raw bytes dominates an Ed25519 verify, so a key parses once
        return Ed25519PublicKey.from_public_bytes(self.material)


class DsSecretKey(Record):
    _fields = ("algo", "material", "next_leaf", "capacity_log2", "_tree")

    def __init__(
        self,
        algo: str,
        material: bytes,
        next_leaf: int = 0,  # hash-chain signing is stateful: next unused leaf index
        capacity_log2: int = 0,
        _tree: list | None = None,
    ) -> None:
        self.algo = algo
        self.material = material
        self.next_leaf = next_leaf
        self.capacity_log2 = capacity_log2
        self._tree = _tree

    @cached_property
    def _ed25519(self):
        return Ed25519PrivateKey.from_private_bytes(self.material)


# -- self-contained hash-based scheme (one-time leaves under a Merkle root) --

_LEAF_BITS = 256
MAX_CAPACITY_LOG2 = 20

# A leaf secret is _sha(b"leaf", seed, leaf, pos, val): the hash of the shared
# (b"leaf", seed, leaf) prefix is computed once per leaf and copied, and each
# (pos, val) appends its own length-prefixed 11-byte suffix.
_SECRET_SUFFIXES = [
    struct.pack(">IHIB", 2, pos, 1, val) for pos in range(_LEAF_BITS) for val in (0, 1)
]


class KeyExhaustedError(RuntimeError):
    """Every one-time leaf of a stateful signing key has been used."""


def _leaf_secrets(seed: bytes, leaf: int) -> list[bytes]:
    """The leaf's 2 x 256 one-time secrets, indexed by 2 * pos + val."""
    base = hashlib.sha256()
    for p in (b"leaf", seed, leaf.to_bytes(4, "big")):
        base.update(len(p).to_bytes(4, "big"))
        base.update(p)
    out = []
    for suffix in _SECRET_SUFFIXES:
        h = base.copy()
        h.update(suffix)
        out.append(h.digest())
    return out


def _leaf_public(hashes: list[bytes]) -> bytes:
    return hashlib.sha256(b"".join(hashes)).digest()


def _secret_hashes(secrets: list[bytes]) -> list[bytes]:
    return [hashlib.sha256(x).digest() for x in secrets]


def _tree_from_leaves(leaves: list[bytes]) -> list[list[bytes]]:
    level = leaves
    levels = [level]
    while len(level) > 1:
        level = [_sha(b"node", level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def _build_tree(seed: bytes, cap_log2: int) -> list[list[bytes]]:
    leaves = [_leaf_public(_secret_hashes(_leaf_secrets(seed, i))) for i in range(1 << cap_log2)]
    return _tree_from_leaves(leaves)


def hash_chain_secret_key(
    seed: bytes,
    next_leaf: int,
    capacity_log2: int,
    leaves: bytes | None = None,
    root: bytes | None = None,
) -> DsSecretKey:
    """Rebuild a stored hash-chain secret key; malformed state raises DataError.

    ``leaves`` is the stored leaf level (32 bytes per leaf) and ``root`` the
    Merkle root it must hash to; with both absent the tree is rebuilt from the
    seed on first use.  A leaf level that does not hash to the root is
    rejected here, before any leaf is spent.
    """
    if not 0 <= capacity_log2 <= MAX_CAPACITY_LOG2:
        raise DataError(f"capacity_log2 {capacity_log2} outside 0..{MAX_CAPACITY_LOG2}")
    if not 0 <= next_leaf <= 1 << capacity_log2:
        raise DataError(f"next_leaf {next_leaf} outside 0..{1 << capacity_log2}")
    if len(seed) != 32:
        raise DataError("hash-chain seed must be 32 bytes")
    sk = DsSecretKey("hash-chain", seed, next_leaf, capacity_log2)
    if leaves is None and root is None:
        return sk
    if leaves is None or root is None:
        raise DataError("hash-chain leaf level and root must be stored together")
    if len(leaves) != 32 << capacity_log2:
        raise DataError(f"leaf level must be {32 << capacity_log2} bytes, got {len(leaves)}")
    tree = _tree_from_leaves([leaves[i : i + 32] for i in range(0, len(leaves), 32)])
    if tree[-1][0] != root:
        raise DataError("stored leaf level does not hash to the stored root")
    sk._tree = tree
    return sk


def _tree(sk: DsSecretKey) -> list[list[bytes]]:
    # a key decoded from a file without a stored leaf level rebuilds it once
    if sk._tree is None:
        sk._tree = _build_tree(sk.material, sk.capacity_log2)
    return sk._tree


def hash_chain_tree(sk: DsSecretKey) -> tuple[bytes, bytes]:
    """(leaf level, root) of a hash-chain key, for storing it with the key."""
    tree = _tree(sk)
    return b"".join(tree[0]), tree[-1][0]


def _hash_chain_keygen(rng: Random, capacity_log2: int) -> tuple[DsPublicKey, DsSecretKey]:
    if not 0 <= capacity_log2 <= MAX_CAPACITY_LOG2:
        raise ValueError(f"capacity_log2 must be in 0..{MAX_CAPACITY_LOG2}")
    seed = rng.randbytes(32)
    tree = _build_tree(seed, capacity_log2)
    root = tree[-1][0]
    pk = DsPublicKey("hash-chain", capacity_log2.to_bytes(1, "big") + root)
    sk = DsSecretKey("hash-chain", seed, 0, capacity_log2, tree)
    return pk, sk


def _hash_chain_sign(sk: DsSecretKey, message: bytes) -> bytes:
    leaf = sk.next_leaf
    capacity = 1 << sk.capacity_log2
    if leaf >= capacity:
        raise KeyExhaustedError(
            f"hash-chain key exhausted ({leaf}/{capacity} leaves used); run keygen"
        )
    tree = _tree(sk)
    secrets = _leaf_secrets(sk.material, leaf)
    hashes = _secret_hashes(secrets)
    # a stored tree that does not belong to this seed would release a
    # signature that never verifies and burn the leaf; refuse before that
    if _leaf_public(hashes) != tree[0][leaf]:
        raise DataError(f"stored hash of leaf {leaf} does not match the key seed")
    sk.next_leaf = leaf + 1
    digest = _sha(b"msg", message)
    bits = [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(_LEAF_BITS)]
    parts = [leaf.to_bytes(4, "big")]
    for pos, b in enumerate(bits):
        parts.append(secrets[2 * pos + b])
        parts.append(hashes[2 * pos + 1 - b])
    idx = leaf
    for level in tree[:-1]:
        parts.append(level[idx ^ 1])
        idx //= 2
    return b"".join(parts)


def _hash_chain_verify(pk: DsPublicKey, message: bytes, signature: bytes) -> bool:
    try:
        cap = pk.material[0]
        root = pk.material[1:]
        need = 4 + _LEAF_BITS * 64 + cap * 32
        if len(signature) != need:
            return False
        leaf = int.from_bytes(signature[:4], "big")
        if leaf >= (1 << cap):
            return False
        digest = _sha(b"msg", message)
        bits = [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(_LEAF_BITS)]
        off = 4
        h = hashlib.sha256()
        for b in bits:
            secret = signature[off : off + 32]
            other = signature[off + 32 : off + 64]
            off += 64
            pair = [hashlib.sha256(secret).digest(), other]
            if b:
                pair.reverse()  # revealed secret sits in the slot for value b
            h.update(pair[0])
            h.update(pair[1])
        acc = h.digest()
        idx = leaf
        for _ in range(cap):
            sib = signature[off : off + 32]
            off += 32
            if idx & 1:
                acc = _sha(b"node", sib, acc)
            else:
                acc = _sha(b"node", acc, sib)
            idx //= 2
        return hmac.compare_digest(acc, root)
    except Exception:
        return False


def ds_keygen(
    kappa: int,
    rng: Random,
    algo: str | None = None,
    capacity_log2: int = 10,
) -> tuple[DsPublicKey, DsSecretKey]:
    """Key pair for the classical signature layer.

    ``ed25519`` adapts a vetted library primitive; ``hash-chain`` is the
    self-contained fallback (stateful, bounded number of signatures).
    """
    algo = algo or default_ds_algo()
    if algo == "ed25519":
        if not _HAVE_ED25519:
            raise RuntimeError("ed25519 backend not importable here")
        raw = rng.randbytes(32)
        sk = DsSecretKey("ed25519", raw)
        sk._ed25519 = priv = Ed25519PrivateKey.from_private_bytes(raw)  # parsed once
        return DsPublicKey("ed25519", priv.public_key().public_bytes_raw()), sk
    if algo == "hash-chain":
        return _hash_chain_keygen(rng, capacity_log2)
    raise ValueError(f"unknown signature algorithm {algo!r}")


def ds_sign(sk: DsSecretKey, message: bytes) -> bytes:
    if sk.algo == "ed25519":
        return sk._ed25519.sign(message)
    if sk.algo == "hash-chain":
        return _hash_chain_sign(sk, message)
    raise ValueError(f"unknown signature algorithm {sk.algo!r}")


def ds_verify(pk: DsPublicKey, message: bytes, signature: bytes) -> bool:
    """Total and deterministic: malformed input verifies false, never raises."""
    if not isinstance(signature, (bytes, bytearray)):
        return False
    if pk.algo == "ed25519":
        try:
            pk._ed25519.verify(signature, message)
            return True
        except Exception:
            return False
    if pk.algo == "hash-chain":
        return _hash_chain_verify(pk, message, signature)
    return False


# ---------------------------------------------------------------------------
# MAC and symmetric encryption
# ---------------------------------------------------------------------------


def mac_keygen(kappa: int, rng: Random) -> bytes:
    return rng.randbytes(32)


def mac_tag(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


def mac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    if not isinstance(tag, (bytes, bytearray)):
        return False
    return hmac.compare_digest(mac_tag(key, message), bytes(tag))


def enc_keygen(kappa: int, rng: Random) -> bytes:
    return rng.randbytes(32)


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += _sha(b"ks", key, nonce, counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:length])


def encrypt(key: bytes, plaintext: bytes, rng: Random) -> bytes:
    """Randomized stream cipher; equal-length plaintexts give equal-length
    ciphertexts."""
    nonce = rng.randbytes(16)
    return nonce + bytes(a ^ b for a, b in zip(plaintext, _keystream(key, nonce, len(plaintext))))


def decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Inverse of encrypt; a wrong key yields wrong bytes, never a crash."""
    if len(ciphertext) < 16:
        raise DataError("ciphertext shorter than its nonce")
    nonce, body = ciphertext[:16], ciphertext[16:]
    return bytes(a ^ b for a, b in zip(body, _keystream(key, nonce, len(body))))
