"""Executable model of a three-party smart-card login scheme and its attacks.

The protocol: a control server provisions smart cards and service servers
from two master secrets; login runs a four-message hash-and-XOR exchange
ending in a shared session key.  The package demonstrates three practical
attacks against it: offline credential guessing from extracted card
secrets, masquerading by any registered user, and replay of a captured
login message.
"""

from .crypto import (
    DIGEST_LEN,
    BlockRng,
    concat,
    h,
    hash_bytes,
    split_concat,
    xor,
)
from .actors import (
    M1,
    M2,
    M3,
    M4,
    CardSession,
    ControlServer,
    CSAuthFailed,
    CsSession,
    LocalCheckFailed,
    ServerAuthFailed,
    ServerSecrets,
    SmartCard,
    UserAuthFailed,
    card_login,
    card_verify,
    cs_authenticate,
    register_server,
    register_user,
    server_forward,
    server_verify,
)
from .attacks import (
    AdversaryKnowledge,
    guess_credentials,
    read_dictionary_file,
)
from .simulator import (
    ARTIFACT_VERSION,
    KINDS,
    MUTATION_TARGETS,
    ChannelEvent,
    ConfigError,
    ScenarioConfig,
    Transcript,
    TranscriptFormatError,
    decode_message,
    encode_message,
    flip_byte,
    run_scenario,
    verify_transcript,
)

__version__ = ARTIFACT_VERSION
