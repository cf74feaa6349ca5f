"""Jordan-form specifications: the (eigenvalue, block size) list that the theory reads.

A ``JordanSpec`` is validated, ordered, serialized and measured here without numpy; its
dense matrix is ``jordan.build_jordan``'s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import InvalidInputError
from .scalar import _integer, modulus, times_power_of_two, unit_exponent

if TYPE_CHECKING:
    import numpy as np

__all__ = ["JordanSpec"]


@dataclass(frozen=True)
class JordanSpec:
    """Ordered list of (eigenvalue, block size) pairs describing a Jordan matrix.

    The represented matrix is the direct sum of the blocks in the given order.
    Serialization round-trips exactly: ``JordanSpec.from_json(spec.to_json())``
    reproduces the same block tuple.  ``order`` and ``rank`` are computed once per
    instance; they are not part of the state that is compared, hashed or pickled.
    """

    blocks: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise InvalidInputError("JordanSpec needs at least one block")
        norm = []
        order = zeros = 0
        for lam, size in self.blocks:
            lam = complex(lam)
            if not cmath.isfinite(lam):
                raise InvalidInputError("block eigenvalues must be finite")
            # an int is read here: ``scalar._integer``'s ABC test costs 1 us, so it reads
            # the rest (numpy's integers, and refuses a bool)
            if type(size) is not int or size < 1:
                size = _integer(size, 1,
                                refusal=f"block size must be a positive integer, got {size!r}")
            norm.append((lam, size))
            order += size
            zeros += lam == 0
        object.__setattr__(self, "blocks", tuple(norm))
        # this walk fills the caches of ``order`` and ``rank``; an unpickled spec fills
        # them on first use
        cache = self.__dict__
        cache["order"] = order
        cache["rank"] = order - zeros

    def __getstate__(self):
        return {"blocks": self.blocks}

    @cached_property
    def order(self) -> int:
        return sum(size for _, size in self.blocks)

    @property
    def diagonal(self) -> np.ndarray:
        """Eigenvalues repeated along the diagonal, block by block (an array: this loads
        numpy)."""
        import numpy as np

        return np.repeat([lam for lam, _ in self.blocks], [size for _, size in self.blocks])

    @property
    def alphas(self) -> np.ndarray:
        """Superdiagonal indicators: 1 inside a block, 0 at block boundaries (an array:
        this loads numpy)."""
        import numpy as np

        bits = []
        for _, size in self.blocks:
            bits.extend([1] * (size - 1) + [0])
        return np.array(bits[:-1], dtype=int) if len(bits) > 1 else np.zeros(0, dtype=int)

    @cached_property
    def rank(self) -> int:
        """Order minus the number of blocks with eigenvalue exactly zero."""
        return self.order - sum(1 for lam, _ in self.blocks if lam == 0)

    @property
    def spectral_radius(self) -> float:
        """max |lam| (``scalar.modulus``): inf past the float range."""
        return modulus(*(lam for lam, _ in self.blocks))

    def is_nilpotent(self) -> bool:
        return all(lam == 0 for lam, _ in self.blocks)

    def is_zero_matrix(self) -> bool:
        return all(lam == 0 and size == 1 for lam, size in self.blocks)

    def canonical_order(self) -> list[int]:
        """Block indices sorted by descending |eigenvalue|, descending size,
        ascending arg (stable among equal blocks)."""
        # |lam| < 2^(e + 1.5) passes the float range only at e = 1023, where |lam|/2
        # cannot: no two moduli tie at inf, and in range the key is |lam| itself
        s = 1 if unit_exponent([lam for lam, _ in self.blocks]) >= 1023 else 0

        def key(i):
            lam, size = self.blocks[i]
            arg = cmath.phase(lam) % (2 * math.pi) if lam != 0 else 0.0
            return (-abs(times_power_of_two(lam, -s)), -size, arg)

        return sorted(range(len(self.blocks)), key=key)

    def canonical(self) -> "JordanSpec":
        """Blocks in ``canonical_order``."""
        return JordanSpec(tuple(self.blocks[i] for i in self.canonical_order()))

    def scaled(self, factor: complex) -> "JordanSpec":
        return JordanSpec(tuple((lam * factor, size) for lam, size in self.blocks))

    def to_json(self) -> dict:
        return {
            "blocks": [
                {"re": lam.real, "im": lam.imag, "size": size} for lam, size in self.blocks
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "JordanSpec":
        """Read ``to_json``'s document.  A boolean is not a number here, and a size must
        be integral, as 2 or 2.0, like the CLI's "order"."""
        blocks = []
        try:
            for b in data["blocks"]:
                re, im, size = b["re"], b["im"], b["size"]
                if type(re) is bool or type(im) is bool or type(size) is bool:
                    raise TypeError("re, im and size must be numbers, not booleans")
                n = int(size)
                if n != size and isinstance(size, float):
                    raise ValueError(f"block size {size!r} is fractional")
                blocks.append((complex(re, im), n))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed JordanSpec document: {exc}") from exc
        return cls(tuple(blocks))
