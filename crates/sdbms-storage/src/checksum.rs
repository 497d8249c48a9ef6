//! CRC32 checksums for pages and archive blocks.
//!
//! The fault-injection layer (see [`crate::fault`]) can flip bits in
//! stored data without any error surfacing at write time — exactly the
//! failure mode real media exhibit. Every disk page and archive block
//! therefore carries a CRC32 (IEEE 802.3 polynomial, reflected)
//! computed at write time and verified at read time, so corruption is
//! *detected* at the device boundary instead of propagating into the
//! record, index, and summary layers as silently wrong answers.

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial
/// `0xEDB88320`, built at compile time. `TABLES[0]` is the classic
/// one-byte table; `TABLES[k][b]` is `TABLES[0][b]` carried on through
/// `k` more zero bytes, so one lookup per table folds eight input
/// bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes`.
///
/// Slicing-by-8: the body folds eight bytes per step with eight
/// independent table lookups, and the tail (fewer than eight bytes)
/// runs the one-byte table. The result must equal the one-lookup-per-
/// byte CRC on every input, since stored checksums are compared with
/// it; the tests check that against a bytewise reference.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = t[7][usize::from(c[0] ^ c0)]
            ^ t[6][usize::from(c[1] ^ c1)]
            ^ t[5][usize::from(c[2] ^ c2)]
            ^ t[4][usize::from(c[3] ^ c3)]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference CRC32: one table lookup per input byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// Seeded xorshift64 bytes, so the differential inputs are random
    /// but reproducible.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 4096];
        data[100] = 7;
        let before = crc32(&data);
        for bit in [0, 1, 800 * 8 + 3, 4095 * 8 + 7] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), before, "bit {bit}");
        }
    }

    #[test]
    fn deterministic() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&data), crc32(&data));
    }

    #[test]
    fn one_byte_table_is_the_classic_table() {
        // Spot values of the well-known IEEE reflected table.
        assert_eq!(TABLES[0][0], 0);
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_on_every_length_and_alignment() {
        let data = seeded_bytes(0x5EED_C0DE, 4097 + 8);
        let lengths = (0..=64).chain([4095, 4096, 4097]);
        for len in lengths {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "len {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_on_seeded_random_pages() {
        for seed in 1..=64u64 {
            let len = usize::try_from(seed * 131 % 9000).expect("small length");
            let data = seeded_bytes(seed, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "seed {seed}");
        }
    }
}
