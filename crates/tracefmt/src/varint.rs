//! LEB128 varints and zigzag mapping — the per-column primitive codec.
//!
//! Every numeric column of the binary trace format is a sequence of
//! unsigned LEB128 varints; signed quantities (deltas, values) map
//! through zigzag first so small magnitudes of either sign stay short.
//! Decoding is fully bounds-checked: an overlong varint (more than 10
//! bytes), a truncated one, or a non-canonical one (a trailing zero
//! continuation byte — a value with a shorter valid encoding) is a
//! structured [`TraceError::Corrupt`], never a panic or a silent wrap.
//! Rejecting non-canonical forms keeps the encoding bijective: every
//! value has exactly one accepted byte sequence, so checksummed chunks
//! can never disagree about re-encoded bytes.

use spinrace_vm::TraceError;

/// Append `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Why a varint failed to decode. `Copy` and one byte wide, so hot
/// decode loops carry it in a register; it becomes a
/// [`TraceError::Corrupt`] only on the way out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VarintError {
    /// The buffer ended inside the varint.
    Truncated,
    /// More than 64 bits of payload.
    Overlong,
    /// A zero final byte after a continuation: the value has a shorter
    /// encoding.
    NonCanonical,
}

impl From<VarintError> for TraceError {
    fn from(e: VarintError) -> Self {
        TraceError::Corrupt(
            match e {
                VarintError::Truncated => "truncated varint",
                VarintError::Overlong => "overlong varint",
                VarintError::NonCanonical => "non-canonical varint",
            }
            .into(),
        )
    }
}

/// Decode an unsigned LEB128 varint from `buf` at `*pos`, advancing
/// `*pos` past it.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    read_uvarint(buf, pos).map_err(TraceError::from)
}

/// The varint decoder behind [`get_uvarint`], with a register-sized
/// error for the column decoder's per-event loop.
#[inline]
pub(crate) fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    // Fast path: with delta coding most column values are a single
    // byte, so peel that case off before the general loop.
    if let Some(&b) = buf.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    read_uvarint_multi(buf, pos)
}

/// The general multi-byte (or truncated/overlong) case of
/// [`read_uvarint`].
fn read_uvarint_multi(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(VarintError::Truncated);
        };
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(VarintError::Overlong);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            // A zero final byte after a continuation encodes nothing: the
            // same value has a shorter encoding, which the writer always
            // produces. Only `0x00` at shift 0 (the value zero) is valid.
            if b == 0 && shift > 0 {
                return Err(VarintError::NonCanonical);
            }
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::Overlong);
        }
    }
}

/// Map a signed value onto unsigned so small magnitudes of either sign
/// produce short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_edge_values() {
        let mut buf = Vec::new();
        let values = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small: the whole point.
        assert!(zigzag(-1) < 128 && zigzag(1) < 128);
    }

    #[test]
    fn truncated_and_overlong_varints_are_errors() {
        // Continuation bit set but no next byte.
        let mut pos = 0;
        assert!(get_uvarint(&[0x80], &mut pos).is_err());
        // Eleven continuation bytes exceed a u64.
        let overlong = [0xff; 11];
        let mut pos = 0;
        assert!(get_uvarint(&overlong, &mut pos).is_err());
    }

    /// Every power-of-two threshold where the encoded length changes —
    /// the exact boundaries where an off-by-one in the shift arithmetic
    /// would corrupt values — round-trips, one byte longer every 7 bits.
    #[test]
    fn power_of_two_thresholds_round_trip_at_expected_lengths() {
        for k in 0..64u32 {
            for v in [1u64 << k, (1u64 << k) - 1, (1u64 << k) + 1] {
                let mut buf = Vec::new();
                put_uvarint(&mut buf, v);
                let expected_len = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
                assert_eq!(buf.len(), expected_len, "encoded length of {v}");
                let mut pos = 0;
                assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
                assert_eq!(pos, buf.len(), "consumed bytes for {v}");
            }
        }
        // The widest value takes the full 10 bytes, final byte 0x01.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], 0x01);
    }

    /// All valid 10-byte (maximum-length) encodings decode: nine
    /// continuation bytes and a final byte of exactly 1 (the 64th bit).
    /// The tenth byte carries one usable bit, so 2..=0x7f overflows and
    /// 0x00 is non-canonical.
    #[test]
    fn ten_byte_encodings_cover_exactly_the_top_bit() {
        for low in [0x80u8, 0xff] {
            let mut enc = [low; 10];
            enc[9] = 0x01;
            let mut pos = 0;
            let got = get_uvarint(&enc, &mut pos).unwrap();
            let mut want = 1u64 << 63;
            for (i, &b) in enc[..9].iter().enumerate() {
                want |= u64::from(b & 0x7f) << (7 * i);
            }
            assert_eq!(got, want);
            assert_eq!(pos, 10);
            // Anything above 1 in the final byte spills past bit 63.
            for bad in [0x02u8, 0x40, 0x7f] {
                enc[9] = bad;
                let mut pos = 0;
                assert!(matches!(
                    get_uvarint(&enc, &mut pos),
                    Err(TraceError::Corrupt(_))
                ));
            }
        }
    }

    /// Overlong (non-canonical) encodings — a shorter valid encoding
    /// padded with zero continuation bytes — are structured corruption,
    /// not silent aliases of the short form.
    #[test]
    fn non_canonical_encodings_are_rejected() {
        // `0` padded to two bytes, `1` padded to two bytes, and a
        // max-length zero.
        for enc in [
            &[0x80, 0x00][..],
            &[0x81, 0x00][..],
            &[0xff, 0x00][..],
            &[0x80, 0x80, 0x00][..],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00][..],
        ] {
            let mut pos = 0;
            assert!(
                matches!(get_uvarint(enc, &mut pos), Err(TraceError::Corrupt(_))),
                "accepted non-canonical {enc:?}"
            );
        }
        // The genuine zero (one byte) still decodes.
        let mut pos = 0;
        assert_eq!(get_uvarint(&[0x00], &mut pos).unwrap(), 0);
        assert_eq!(pos, 1);
    }

    proptest::proptest! {
        /// Encode→decode is the identity for arbitrary values, and the
        /// decoder consumes exactly the bytes the encoder wrote.
        #[test]
        fn uvarint_round_trips(v in 0u64..=u64::MAX) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            proptest::prop_assert!(buf.len() <= 10);
            let mut pos = 0;
            proptest::prop_assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            proptest::prop_assert_eq!(pos, buf.len());
        }

        /// Decoding any byte soup either fails structurally or yields a
        /// value whose canonical re-encoding is exactly the bytes
        /// consumed — the bijectivity the canonicality check buys.
        #[test]
        fn decoded_values_reencode_to_the_consumed_bytes(
            bytes in proptest::collection::vec(0u8..=0xff, 0..16)
        ) {
            let mut pos = 0;
            if let Ok(v) = get_uvarint(&bytes, &mut pos) {
                let mut again = Vec::new();
                put_uvarint(&mut again, v);
                proptest::prop_assert_eq!(&again[..], &bytes[..pos]);
            }
        }

        /// Zigzag stays a bijection over the full signed range.
        #[test]
        fn zigzag_round_trips(v in i64::MIN..=i64::MAX) {
            proptest::prop_assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
