"""Desk-scale tokenized signatures over hidden binary subspaces.

A signing token is (a classical simulation of) the uniform superposition
over a hidden half-dimension subspace of F2^n.  Spending the token measures
it — in the standard basis to sign a 0, in the Hadamard basis to sign a 1 —
so each token yields exactly one verifiable signature, and anyone can check
a leftover token non-destructively.  Reduction layers turn that one-bit
primitive into signatures on arbitrary bytes, unboundedly many tokens under
one long-lived key, a private-key variant, and a small check-clearing bank
built on top.

Importing the package runs none of its modules: each exported name is
imported from its module on first use (PEP 562), and ``games``, ``money``
and ``privts`` are registered lazily (``importlib.util.LazyLoader``), so
their code runs only when one of their attributes is first read.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        (
            "f2lin",
            "DimensionError F2Vector Subspace canonicalize dual enumerate_subspaces"
            " intersection_dim member sample_related sample_subspace",
        ),
        (
            "qsim",
            "CosetState UnsupportedStateError basis_state hadamard_all measure_standard"
            " phase_state prepare_subspace_state project_subspace"
            " projection_accept_probability subspace_state",
        ),
        (
            "ot1",
            "MembershipOracle Ot1Signature Ot1Token TokenSpentError default_dimension"
            " ot1_keygen ot1_revoke ot1_sign ot1_token_gen ot1_verify"
            " ot1_verify_token",
        ),
        (
            "primitives",
            "DataError HASH_VARIANTS ds_keygen ds_sign ds_verify hash_bits hash_eval hash_index",
        ),
        (
            "stack",
            "TsPublicKey TsSecretKey TsSignature TsToken otr_keygen otr_sign otr_token_gen"
            " otr_verify ot_keygen ot_sign ot_token_gen ot_verify ts_keygen ts_revoke ts_sign"
            " ts_token_gen ts_verify ts_verify_token verify_k verify_prime_k",
        ),
        (
            "privts",
            "TmKey TmSignature TmToken tm_keygen tm_revoke tm_sign"
            " tm_token_gen tm_verify tm_verify_token",
        ),
        (
            "money",
            "BranchState Check Coin LedgerEvent branch_cash check_verify check_write"
            " coin_mint coin_verify simulate_bank",
        ),
        (
            "games",
            "AdversaryStrategy Capability GameReport game_everlasting game_revocability"
            " game_super_security game_testability game_unforgeability"
            " game_unpredictability query_count_experiment relation_statistics"
            " two_faced_demo",
        ),
    )
    for name in names.split()
}
__all__ = list(_EXPORTS)


def _lazy_module(name: str):
    """Register ``qtsl.<name>`` in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


games = _lazy_module("games")
money = _lazy_module("money")
privts = _lazy_module("privts")


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _EXPORTS.values():  # a module nothing has imported yet
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
