//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), eight table lookups a round.
//!
//! Used as the checkpoint container's integrity trailer. CRC-32 detects
//! every single-bit error and every burst error up to 32 bits — exactly
//! the torn-write and bit-rot failures the rotation set must reject.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes be folded per round ("slice-by-8").
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 * (c & 1));
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    while i < 8 * 256 {
        // `i` runs on from 256: table `i / 256`, byte `i % 256`.
        let prev = tables[i / 256 - 1][i % 256];
        tables[i / 256][i % 256] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
        i += 1;
    }
    tables
}

const TABLES: [[u32; 256]; 8] = make_tables();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let x = u64::from_le_bytes(*w) ^ c as u64;
        c = (0..8).fold(0, |acc, k| {
            acc ^ TABLES[7 - k][(x >> (8 * k)) as usize & 0xFF]
        });
    }
    for &b in tail {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time definition, kept here as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_definition() {
        // Every length 0..=64 at every alignment 0..=7, then 1 MiB.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let big: Vec<u8> = (0..(1 << 20) + 7)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &big[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{offset}+{len}");
            }
        }
        let mib = &big[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
    }

    #[test]
    fn single_bit_flips_always_change_the_crc() {
        let data = b"rtic-checkpoint-set v2\nsections 1\npayload...";
        let base = crc32(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
