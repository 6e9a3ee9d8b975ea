"""Desk-scale tokenized signatures over hidden binary subspaces.

A signing token is (a classical simulation of) the uniform superposition
over a hidden half-dimension subspace of F2^n.  Spending the token measures
it — in the standard basis to sign a 0, in the Hadamard basis to sign a 1 —
so each token yields exactly one verifiable signature, and anyone can check
a leftover token non-destructively.  Reduction layers turn that one-bit
primitive into signatures on arbitrary bytes, unboundedly many tokens under
one long-lived key, a private-key variant, and a small check-clearing bank
built on top.
"""

from .f2lin import (
    DimensionError,
    F2Vector,
    Subspace,
    canonicalize,
    dual,
    enumerate_subspaces,
    intersection_dim,
    member,
    sample_related,
    sample_subspace,
)
from .qsim import (
    CosetState,
    UnsupportedStateError,
    basis_state,
    hadamard_all,
    measure_standard,
    phase_state,
    prepare_subspace_state,
    project_subspace,
    projection_accept_probability,
    subspace_state,
)
from .ot1 import (
    MembershipOracle,
    OracleWithheldError,
    Ot1Signature,
    Ot1Token,
    TokenSpentError,
    default_dimension,
    ot1_keygen,
    ot1_measure,
    ot1_revoke,
    ot1_sign,
    ot1_token_gen,
    ot1_verify,
    ot1_verify_token,
    priv_ot1_verify,
    withheld_twin,
)
from .primitives import (
    DataError,
    HASH_VARIANTS,
    ds_keygen,
    ds_sign,
    ds_verify,
    hash_bits,
    hash_eval,
    hash_index,
)
from .stack import (
    TsPublicKey,
    TsSecretKey,
    TsSignature,
    TsToken,
    otr_keygen,
    otr_sign,
    otr_token_gen,
    otr_verify,
    ot_keygen,
    ot_sign,
    ot_token_gen,
    ot_verify,
    ts_keygen,
    ts_revoke,
    ts_sign,
    ts_token_gen,
    ts_verify,
    ts_verify_token,
    verify_k,
    verify_prime_k,
)
from .privts import (
    TmKey,
    TmSignature,
    TmToken,
    priv_ot1_keygen,
    tm_keygen,
    tm_revoke,
    tm_sign,
    tm_token_gen,
    tm_verify,
    tm_verify_token,
)
from .money import (
    BranchState,
    Check,
    Coin,
    LedgerEvent,
    branch_cash,
    check_verify,
    check_write,
    coin_mint,
    coin_verify,
    simulate_bank,
)
from .games import (
    AdversaryStrategy,
    Capability,
    GameReport,
    game_everlasting,
    game_revocability,
    game_super_security,
    game_testability,
    game_unforgeability,
    game_unpredictability,
    query_count_experiment,
    relation_statistics,
    two_faced_demo,
)

__version__ = "0.1.0"
