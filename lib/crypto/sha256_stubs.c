/* The SHA-256 compression function (FIPS 180-4, section 6.2.2) for
 * Sha256.compress.
 *
 * Portable C99: no intrinsics, no CPU dispatch. The rounds use only
 * shifts, rotations, boolean operations and additions on 32-bit
 * words, with no table indexed by data, so a compression's timing
 * does not depend on the bytes it absorbs.
 *
 * The stub is [@@noalloc]: it allocates nothing and raises nothing.
 * It reads the 64-byte block where it lies in the OCaml bytes value,
 * keeps the 64-word message schedule on the C stack, and writes the
 * eight chaining words back into the context's int array as tagged
 * OCaml ints. Immediates need no write barrier.
 */

#include <stdint.h>

#include <caml/mlvalues.h>

static const uint32_t k[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

#define ROR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* gkm_sha256_compress h block off
 *
 * Absorbs the 64 bytes of [block] from [off] into the 8 chaining
 * words of the int array [h]. The caller checks the bounds. */
CAMLprim value gkm_sha256_compress(value vh, value vblock, value voff)
{
    const unsigned char *p = Bytes_val(vblock) + Long_val(voff);
    uint32_t w[64];
    uint32_t s[8];

    for (int t = 0; t < 16; t++)
        w[t] = (uint32_t)p[4 * t] << 24 | (uint32_t)p[4 * t + 1] << 16
               | (uint32_t)p[4 * t + 2] << 8 | (uint32_t)p[4 * t + 3];
    for (int t = 16; t < 64; t++) {
        uint32_t x = w[t - 15], y = w[t - 2];
        uint32_t s0 = ROR(x, 7) ^ ROR(x, 18) ^ (x >> 3);
        uint32_t s1 = ROR(y, 17) ^ ROR(y, 19) ^ (y >> 10);
        w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    for (int i = 0; i < 8; i++)
        s[i] = (uint32_t)Long_val(Field(vh, i));

    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], hh = s[7];
    for (int t = 0; t < 64; t++) {
        uint32_t t1 = hh + (ROR(e, 6) ^ ROR(e, 11) ^ ROR(e, 25)) + ((e & f) ^ (~e & g)) + k[t]
                      + w[t];
        uint32_t t2 = (ROR(a, 2) ^ ROR(a, 13) ^ ROR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
        hh = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
    s[4] += e;
    s[5] += f;
    s[6] += g;
    s[7] += hh;
    for (int i = 0; i < 8; i++)
        Field(vh, i) = Val_long((intnat)s[i]);
    return Val_unit;
}
