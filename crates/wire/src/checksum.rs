//! The Internet checksum (RFC 1071).
//!
//! The accumulator form handles data spread across mbuf segments of odd
//! lengths: byte-position parity is tracked so the result is identical
//! to checksumming the concatenated bytes.

/// One's-complement sum accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checksum {
    sum: u32,
    /// True when an odd number of bytes has been folded in so far (the
    /// next byte is a low-order byte).
    odd: bool,
}

impl Checksum {
    /// A fresh accumulator.
    pub fn new() -> Checksum {
        Checksum::default()
    }

    /// Folds `data` into the sum, as if appended to all previous data.
    pub fn add_bytes(&mut self, data: &[u8]) {
        let mut i = 0;
        if self.odd && !data.is_empty() {
            self.sum += u32::from(data[0]);
            self.odd = false;
            i = 1;
        }
        while i + 1 < data.len() {
            self.sum += u32::from(u16::from_be_bytes([data[i], data[i + 1]]));
            i += 2;
        }
        if i < data.len() {
            self.sum += u32::from(data[i]) << 8;
            self.odd = true;
        }
        // Partial fold to keep the sum bounded.
        self.sum = (self.sum & 0xFFFF) + (self.sum >> 16);
    }

    /// Folds a big-endian `u16` in (must be on an even byte boundary).
    pub(crate) fn add_u16(&mut self, v: u16) {
        debug_assert!(!self.odd, "add_u16 on odd boundary");
        self.sum += u32::from(v);
        self.sum = (self.sum & 0xFFFF) + (self.sum >> 16);
    }

    /// Folds a big-endian `u32` in (must be on an even byte boundary).
    pub(crate) fn add_u32(&mut self, v: u32) {
        self.add_u16((v >> 16) as u16);
        self.add_u16((v & 0xFFFF) as u16);
    }

    /// Finishes: folds carries and returns the one's complement.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Checksums a contiguous buffer.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let mut c = Checksum::new();
        c.add_bytes(&data);
        // RFC gives the sum 0xddf2 before complement.
        assert_eq!(c.finish(), !0xddf2);
    }

    #[test]
    fn zero_buffer_sums_to_ffff() {
        assert_eq!(internet_checksum(&[0u8; 10]), 0xFFFF);
    }

    #[test]
    fn verifying_with_checksum_field_gives_zero() {
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let ck = internet_checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = (ck & 0xff) as u8;
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn odd_length_handled() {
        let data = [1u8, 2, 3];
        // Manually: 0x0102 + 0x0300 = 0x0402 → !0x0402.
        assert_eq!(internet_checksum(&data), !0x0402);
    }

    #[test]
    fn segmented_equals_contiguous() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = internet_checksum(&data);
        for split in [1usize, 3, 7, 128, 999] {
            let mut c = Checksum::new();
            c.add_bytes(&data[..split]);
            c.add_bytes(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
        // Many odd-sized pieces.
        let mut c = Checksum::new();
        for chunk in data.chunks(13) {
            c.add_bytes(chunk);
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn add_u16_u32_match_bytes() {
        let mut a = Checksum::new();
        a.add_u16(0x1234);
        a.add_u32(0xDEADBEEF);
        let mut b = Checksum::new();
        b.add_bytes(&[0x12, 0x34, 0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn carry_folding() {
        // All-0xFF data exercises repeated carries.
        let data = vec![0xFFu8; 64];
        assert_eq!(internet_checksum(&data), 0x0000);
    }
}
