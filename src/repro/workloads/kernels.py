"""The embedded kernel suite.

Section 1.3 of the paper lists the product categories where processor
performance is the limiting factor: cellphones, video, disk controllers,
medical devices, network devices, digital cameras and scanners, printers.
Each kernel below is a self-contained C function typical of the inner loop
of one of those products, written in the front end's C subset, together
with a pure-Python reference implementation (the oracle used by the N×M
correctness matrix) and a deterministic input generator.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def copy_run_args(args) -> tuple:
    """Fresh per-run copies of an argument tuple.

    Simulators write back into list arguments, so every independent run
    (and every oracle evaluation) needs its own copies; this is the one
    shared spelling of that idiom.
    """
    return tuple(list(a) if isinstance(a, list) else a for a in args)


@dataclass
class Kernel:
    """One benchmark kernel: C source, entry point, inputs, oracle."""

    name: str
    domain: str
    description: str
    source: str
    entry: str
    #: builds the argument tuple for a given problem size and seed.
    make_args: Callable[[int, int], tuple]
    #: pure-Python oracle mirroring the kernel's return value.
    reference: Callable[..., int]
    #: default problem size used by tests and benchmarks.
    default_size: int = 64

    def arguments(self, size: int | None = None, seed: int = 1234) -> tuple:
        return self.make_args(size or self.default_size, seed)

    def expected(self, args: tuple) -> int:
        # The oracle must not see the simulator-side mutation of list
        # arguments, so it gets copies.
        return self.reference(*copy_run_args(args))


def draw_ints(seed, count: int, low: int, high: int) -> List[int]:
    """``[random.Random(seed).randint(low, high) for _ in range(count)]``,
    drawn in bulk.

    ``randint`` draws ``k = width.bit_length()`` bits per try and redraws
    while the draw is ``>= width``.  For widths below ``2**32`` (``k <=
    32``) a try is the top ``k`` bits of one 32-bit Mersenne Twister word,
    and ``getrandbits(32 * m)`` returns the next ``m`` words least
    significant first, so rejecting over a batch of words yields the same
    values without three Python call layers per value.  The generator is
    private to the call, so drawing a few words too many changes nothing.
    """
    width = high - low + 1
    k = width.bit_length()
    if k > 32:
        raise ValueError(f"range [{low}, {high}] has 2**32 values or more")
    rng = random.Random(seed)
    shift = 32 - k
    limit = width << shift  # word >> shift < width
    values: List[int] = []
    while len(values) < count:
        words = ((count - len(values)) << k) // width + 8
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values += [low + (word >> shift)
                   for word in struct.unpack(f"<{words}I", raw) if word < limit]
    del values[count:]
    return values


def _wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


# ----------------------------------------------------------------------
# DSP / cellphone kernels.
# ----------------------------------------------------------------------

DOT_PRODUCT = Kernel(
    name="dot_product",
    domain="dsp",
    description="Fixed-point dot product (speech codec correlation loop)",
    entry="dot_product",
    source="""
int dot_product(int *a, int *b, int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) {
        sum = sum + a[i] * b[i];
    }
    return sum;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, -500, 500), draw_ints(seed + 1, n, -500, 500), n
    ),
    reference=lambda a, b, n: _wrap32(sum(x * y for x, y in zip(a[:n], b[:n]))),
)


FIR_FILTER = Kernel(
    name="fir_filter",
    domain="dsp",
    description="16-tap FIR filter with rounding shift (baseband channel filter)",
    entry="fir_filter",
    source="""
#define TAPS 16
int fir_filter(int *x, int *h, int *y, int n) {
    int acc = 0;
    for (int i = 0; i + TAPS <= n; i++) {
        int s = 0;
        for (int j = 0; j < TAPS; j++) {
            s = s + x[i + j] * h[j];
        }
        y[i] = (s + 16384) >> 15;
        acc = acc + y[i];
    }
    return acc;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, -3000, 3000),
        draw_ints(seed + 1, 16, -2000, 2000),
        [0] * n,
        n,
    ),
    reference=lambda x, h, y, n: _wrap32(sum(
        (sum(x[i + j] * h[j] for j in range(16)) + 16384) >> 15
        for i in range(0, n - 16 + 1)
    )),
    default_size=48,
)


SATURATED_ADD = Kernel(
    name="saturated_add",
    domain="dsp",
    description="Saturating vector add (speech/audio mixing, Q15 arithmetic)",
    entry="saturated_add",
    source="""
int saturated_add(int *a, int *b, int *out, int n) {
    int checksum = 0;
    for (int i = 0; i < n; i++) {
        int s = a[i] + b[i];
        s = s > 32767 ? 32767 : s;
        s = s < -32768 ? -32768 : s;
        out[i] = s;
        checksum = checksum + s;
    }
    return checksum;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, -30000, 30000),
        draw_ints(seed + 1, n, -30000, 30000),
        [0] * n,
        n,
    ),
    reference=lambda a, b, out, n: _wrap32(sum(
        max(-32768, min(32767, a[i] + b[i])) for i in range(n)
    )),
)


VITERBI_ACS = Kernel(
    name="viterbi_acs",
    domain="cellphone",
    description="Viterbi add-compare-select butterflies (GSM channel decoder)",
    entry="viterbi_acs",
    source="""
int viterbi_acs(int *metrics, int *branch, int *out, int n) {
    int best = -1000000;
    for (int i = 0; i < n; i++) {
        int m0 = metrics[i] + branch[i];
        int m1 = metrics[n + i] - branch[i];
        int sel = m0 > m1 ? m0 : m1;
        out[i] = sel;
        best = sel > best ? sel : best;
    }
    return best;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, 2 * n, -5000, 5000),
        draw_ints(seed + 1, n, -500, 500),
        [0] * n,
        n,
    ),
    reference=lambda metrics, branch, out, n: max(
        max(metrics[i] + branch[i], metrics[n + i] - branch[i]) for i in range(n)
    ),
)


IIR_BIQUAD = Kernel(
    name="iir_biquad",
    domain="medical",
    description="Direct-form-I biquad IIR section (patient-monitor filtering)",
    entry="iir_biquad",
    source="""
int iir_biquad(int *x, int *coeff, int *y, int n) {
    int x1 = 0;
    int x2 = 0;
    int y1 = 0;
    int y2 = 0;
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int t = coeff[0] * x[i] + coeff[1] * x1 + coeff[2] * x2
              + coeff[3] * y1 + coeff[4] * y2;
        t = t >> 12;
        x2 = x1;
        x1 = x[i];
        y2 = y1;
        y1 = t;
        y[i] = t;
        acc = acc + t;
    }
    return acc;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, -2000, 2000),
        draw_ints(seed + 1, 5, -1500, 1500),
        [0] * n,
        n,
    ),
    reference=None,  # set below (needs a loop-carried reference)
)


def _iir_reference(x, coeff, y, n):
    x1 = x2 = y1 = y2 = 0
    acc = 0
    for i in range(n):
        t = (coeff[0] * x[i] + coeff[1] * x1 + coeff[2] * x2
             + coeff[3] * y1 + coeff[4] * y2)
        t >>= 12
        x2, x1 = x1, x[i]
        y2, y1 = y1, t
        acc += t
    return _wrap32(acc)


IIR_BIQUAD.reference = _iir_reference


# ----------------------------------------------------------------------
# Video / imaging kernels.
# ----------------------------------------------------------------------

SAD_16 = Kernel(
    name="sad16",
    domain="video",
    description="Sum of absolute differences over a block (motion estimation)",
    entry="sad16",
    source="""
int sad16(int *cur, int *ref, int n) {
    int sad = 0;
    for (int i = 0; i < n; i++) {
        int d = cur[i] - ref[i];
        d = d < 0 ? -d : d;
        sad = sad + d;
    }
    return sad;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, 0, 255), draw_ints(seed + 1, n, 0, 255), n
    ),
    reference=lambda cur, ref, n: sum(abs(cur[i] - ref[i]) for i in range(n)),
    default_size=256,
)


RGB_TO_GRAY = Kernel(
    name="rgb_to_gray",
    domain="printer",
    description="RGB to luminance conversion (scanner/printer pipeline)",
    entry="rgb_to_gray",
    source="""
int rgb_to_gray(int *r, int *g, int *b, int *gray, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int v = 77 * r[i] + 150 * g[i] + 29 * b[i];
        v = v >> 8;
        gray[i] = v;
        acc = acc + v;
    }
    return acc;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, 0, 255),
        draw_ints(seed + 1, n, 0, 255),
        draw_ints(seed + 2, n, 0, 255),
        [0] * n,
        n,
    ),
    reference=lambda r, g, b, gray, n: sum(
        (77 * r[i] + 150 * g[i] + 29 * b[i]) >> 8 for i in range(n)
    ),
)


ALPHA_BLEND = Kernel(
    name="alpha_blend",
    domain="camera",
    description="Per-pixel alpha blending with clamping (camera overlay)",
    entry="alpha_blend",
    source="""
int alpha_blend(int *fg, int *bg, int *alpha, int *out, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int a = alpha[i];
        int v = (a * fg[i] + (255 - a) * bg[i] + 128) >> 8;
        v = v > 255 ? 255 : v;
        v = v < 0 ? 0 : v;
        out[i] = v;
        acc = acc + v;
    }
    return acc;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, n, 0, 255),
        draw_ints(seed + 1, n, 0, 255),
        draw_ints(seed + 2, n, 0, 255),
        [0] * n,
        n,
    ),
    reference=lambda fg, bg, alpha, out, n: sum(
        max(0, min(255, (alpha[i] * fg[i] + (255 - alpha[i]) * bg[i] + 128) >> 8))
        for i in range(n)
    ),
)


DCT_2D_STAGE = Kernel(
    name="dct_stage",
    domain="video",
    description="Integer butterfly stage of an 8-point DCT (video encode)",
    entry="dct_stage",
    source="""
int dct_stage(int *blk, int *out, int n) {
    int acc = 0;
    for (int base = 0; base + 8 <= n; base = base + 8) {
        int s07 = blk[base + 0] + blk[base + 7];
        int d07 = blk[base + 0] - blk[base + 7];
        int s16 = blk[base + 1] + blk[base + 6];
        int d16 = blk[base + 1] - blk[base + 6];
        int s25 = blk[base + 2] + blk[base + 5];
        int d25 = blk[base + 2] - blk[base + 5];
        int s34 = blk[base + 3] + blk[base + 4];
        int d34 = blk[base + 3] - blk[base + 4];
        out[base + 0] = s07 + s34;
        out[base + 1] = s16 + s25;
        out[base + 2] = s16 - s25;
        out[base + 3] = s07 - s34;
        out[base + 4] = d07 + d34;
        out[base + 5] = d16 + d25;
        out[base + 6] = d16 - d25;
        out[base + 7] = d07 - d34;
        acc = acc + out[base + 0] + out[base + 7];
    }
    return acc;
}
""",
    make_args=lambda n, seed: (draw_ints(seed, n, -128, 127), [0] * n, n),
    reference=None,  # set below
    default_size=64,
)


def _dct_stage_reference(blk, out, n):
    acc = 0
    for base in range(0, n - 7, 8):
        s07 = blk[base + 0] + blk[base + 7]
        d07 = blk[base + 0] - blk[base + 7]
        s16 = blk[base + 1] + blk[base + 6]
        d16 = blk[base + 1] - blk[base + 6]
        s25 = blk[base + 2] + blk[base + 5]
        d25 = blk[base + 2] - blk[base + 5]
        s34 = blk[base + 3] + blk[base + 4]
        d34 = blk[base + 3] - blk[base + 4]
        acc += (s07 + s34) + (d07 - d34)
    return _wrap32(acc)


DCT_2D_STAGE.reference = _dct_stage_reference


# ----------------------------------------------------------------------
# Network / storage kernels.
# ----------------------------------------------------------------------

CRC32 = Kernel(
    name="crc32",
    domain="network",
    description="Bitwise CRC-32 over a buffer (Ethernet/disk controller)",
    entry="crc32",
    source="""
int crc32(int *data, int n) {
    unsigned int crc = 4294967295;
    for (int i = 0; i < n; i++) {
        unsigned int byte = data[i] & 255;
        crc = crc ^ byte;
        for (int k = 0; k < 8; k++) {
            unsigned int mask = 0 - (crc & 1);
            crc = (crc >> 1) ^ (3988292384 & mask);
        }
    }
    return crc & 2147483647;
}
""",
    make_args=lambda n, seed: (draw_ints(seed, n, 0, 255), n),
    reference=None,  # set below
    default_size=32,
)


def _crc32_reference(data, n):
    crc = 0xFFFFFFFF
    for i in range(n):
        crc ^= data[i] & 0xFF
        for _ in range(8):
            mask = (-(crc & 1)) & 0xFFFFFFFF
            crc = ((crc >> 1) ^ (0xEDB88320 & mask)) & 0xFFFFFFFF
    return crc & 0x7FFFFFFF


CRC32.reference = _crc32_reference


CHECKSUM_IP = Kernel(
    name="ip_checksum",
    domain="network",
    description="16-bit one's-complement checksum (IP/TCP header processing)",
    entry="ip_checksum",
    source="""
int ip_checksum(int *words, int n) {
    unsigned int sum = 0;
    for (int i = 0; i < n; i++) {
        sum = sum + (words[i] & 65535);
        sum = (sum & 65535) + (sum >> 16);
    }
    return (~sum) & 65535;
}
""",
    make_args=lambda n, seed: (draw_ints(seed, n, 0, 65535), n),
    reference=None,  # set below
    default_size=128,
)


def _ip_checksum_reference(words, n):
    total = 0
    for i in range(n):
        total += words[i] & 0xFFFF
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


CHECKSUM_IP.reference = _ip_checksum_reference


POPCOUNT_BUFFER = Kernel(
    name="popcount_buffer",
    domain="disk",
    description="Population count over a buffer (ECC / RAID parity accounting)",
    entry="popcount_buffer",
    source="""
int popcount_buffer(int *data, int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        unsigned int v = data[i];
        v = v - ((v >> 1) & 1431655765);
        v = (v & 858993459) + ((v >> 2) & 858993459);
        v = (v + (v >> 4)) & 252645135;
        total = total + ((v * 16843009) >> 24);
    }
    return total;
}
""",
    make_args=lambda n, seed: (draw_ints(seed, n, 0, 2**31 - 1), n),
    reference=lambda data, n: sum(bin(data[i] & 0xFFFFFFFF).count("1") for i in range(n)),
    default_size=128,
)


# ----------------------------------------------------------------------
# General embedded control.
# ----------------------------------------------------------------------

HISTOGRAM = Kernel(
    name="histogram",
    domain="camera",
    description="256-bin histogram (auto-exposure statistics)",
    entry="histogram",
    source="""
int histogram(int *pixels, int *bins, int n) {
    for (int i = 0; i < 256; i++) {
        bins[i] = 0;
    }
    for (int i = 0; i < n; i++) {
        int p = pixels[i] & 255;
        bins[p] = bins[p] + 1;
    }
    int peak = 0;
    for (int i = 0; i < 256; i++) {
        peak = bins[i] > peak ? bins[i] : peak;
    }
    return peak;
}
""",
    make_args=lambda n, seed: (draw_ints(seed, n, 0, 255), [0] * 256, n),
    reference=None,  # set below
    default_size=512,
)


def _histogram_reference(pixels, bins, n):
    counts = [0] * 256
    for i in range(n):
        counts[pixels[i] & 255] += 1
    return max(counts)


HISTOGRAM.reference = _histogram_reference


MATMUL_SMALL = Kernel(
    name="matmul4",
    domain="medical",
    description="Dense 4x4-blocked matrix multiply (imaging reconstruction)",
    entry="matmul4",
    source="""
#define DIM 4
int matmul4(int *a, int *b, int *c, int reps) {
    int acc = 0;
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < DIM; i++) {
            for (int j = 0; j < DIM; j++) {
                int s = 0;
                for (int k = 0; k < DIM; k++) {
                    s = s + a[i * DIM + k] * b[k * DIM + j];
                }
                c[i * DIM + j] = s;
            }
        }
        acc = acc + c[r & 15];
    }
    return acc;
}
""",
    make_args=lambda n, seed: (
        draw_ints(seed, 16, -50, 50), draw_ints(seed + 1, 16, -50, 50),
        [0] * 16, max(1, n // 16),
    ),
    reference=None,  # set below
    default_size=64,
)


def _matmul4_reference(a, b, c, reps):
    acc = 0
    result = [0] * 16
    for r in range(reps):
        for i in range(4):
            for j in range(4):
                result[i * 4 + j] = sum(a[i * 4 + k] * b[k * 4 + j] for k in range(4))
        acc += result[r & 15]
    return _wrap32(acc)


MATMUL_SMALL.reference = _matmul4_reference


#: All kernels by name.
KERNELS: Dict[str, Kernel] = {
    kernel.name: kernel
    for kernel in (
        DOT_PRODUCT, FIR_FILTER, SATURATED_ADD, VITERBI_ACS, IIR_BIQUAD,
        SAD_16, RGB_TO_GRAY, ALPHA_BLEND, DCT_2D_STAGE,
        CRC32, CHECKSUM_IP, POPCOUNT_BUFFER,
        HISTOGRAM, MATMUL_SMALL,
    )
}

#: Kernel names grouped by product domain (the §1.3 list, plus one
#: ``gen:<family>`` domain per registered generated family).
DOMAINS: Dict[str, List[str]] = {}
for _kernel in KERNELS.values():
    DOMAINS.setdefault(_kernel.domain, []).append(_kernel.name)

#: the hand-written seed suite (never unregisterable by population churn).
BUILTIN_KERNELS = frozenset(KERNELS)


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by name (built-in or registered at runtime)."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel '{name}'; available: {', '.join(sorted(KERNELS))}"
        ) from None


def list_kernels(domain: Optional[str] = None) -> List[str]:
    """Sorted names of every registered kernel (optionally one domain)."""
    if domain is None:
        return sorted(KERNELS)
    return sorted(DOMAINS.get(domain, []))


def register_kernel(kernel: Kernel, replace: bool = False) -> Kernel:
    """Add ``kernel`` to the runtime registry (generated kernels land here).

    Registered kernels are full citizens: :func:`get_kernel`,
    :func:`list_kernels`, the suite helpers and the DSE evaluators all
    resolve them by name.  Re-registering an existing name requires
    ``replace=True``; the built-in suite can be replaced but a later
    :func:`unregister_kernel` restores nothing — don't.
    """
    existing = KERNELS.get(kernel.name)
    if existing is not None and not replace:
        raise ValueError(
            f"kernel '{kernel.name}' is already registered; "
            f"pass replace=True to overwrite"
        )
    if existing is not None:
        names = DOMAINS.get(existing.domain, [])
        if kernel.name in names:
            names.remove(kernel.name)
    KERNELS[kernel.name] = kernel
    names = DOMAINS.setdefault(kernel.domain, [])
    if kernel.name not in names:
        names.append(kernel.name)
    return kernel


def unregister_kernel(name: str) -> None:
    """Remove a runtime-registered kernel (built-ins are protected)."""
    if name in BUILTIN_KERNELS:
        raise ValueError(f"cannot unregister built-in kernel '{name}'")
    kernel = KERNELS.pop(name, None)
    if kernel is None:
        return
    names = DOMAINS.get(kernel.domain, [])
    if name in names:
        names.remove(name)
    if not names and kernel.domain in DOMAINS:
        del DOMAINS[kernel.domain]
