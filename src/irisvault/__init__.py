"""Password-hardened fuzzy vault over revocable biometric point templates.

Pipeline: a combined user + soft-biometric password translates template
points per quadrant (revocable templates), a degree-8 polynomial over
GF(2^16) locks a CRC-protected 128-bit secret at the transformed points,
chaff hides the genuine set, and the password additionally masks the
secret and keys the stored vault.  ``security`` quantifies the result in
min-entropy bits.
"""

from .errors import DomainError, IrisVaultError, UnlockError
from .password import (
    CombinedPassword,
    EyeColor,
    SoftBiometrics,
    TranslationBlock,
    UserPassword,
    combine_password,
    derive_blocks,
    mask_secret,
)
from .security import EntropyReport, analyze
from .templates import parse_template, synth_template, write_template
from .transform import (
    MinutiaPoint,
    Template,
    prune_close,
    quadrant_of,
    transform_template,
)
from .vault import (
    Vault,
    VaultParams,
    build_vault,
    decrypt_vault,
    encode_secret,
    decode_secret,
    encrypt_vault,
    eval_poly,
    generate_chaff,
    interpolate,
    match_candidates,
    open_vault,
    read_vault,
    write_vault,
)

__version__ = "0.1.0"
