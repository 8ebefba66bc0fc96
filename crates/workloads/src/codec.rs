//! Compact binary trace serialization.
//!
//! Traces of a few hundred thousand requests are regenerated cheaply, but
//! experiment pipelines often want to snapshot the exact trace a result
//! came from. The format is a fixed 24-byte little-endian record per
//! request under a small header — ~5× smaller than JSON and allocation-
//! free to scan. Each record is `f64` arrival, `u64` lpn, `u32` pages, one
//! op byte and three zero padding bytes, although [`IoRequest`] packs the
//! same fields into 16 bytes in memory. A record whose lpn or page count
//! does not fit that packing (lpn ≥ 2^48, pages > 2^15 − 1) fails with
//! [`DecodeError::RecordOutOfRange`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::trace::{IoOp, IoRequest, Trace};

/// Magic prefix of the binary trace format.
const MAGIC: &[u8; 4] = b"FXT1";

/// Errors decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than a header or truncated mid-record.
    Truncated,
    /// Missing or wrong magic prefix.
    BadMagic,
    /// Unknown op code in a record.
    BadOp(u8),
    /// Name bytes were not valid UTF-8.
    BadName,
    /// Record `index` has an lpn of at least [`IoRequest::LPN_LIMIT`] or
    /// more than [`IoRequest::MAX_PAGES`] pages.
    RecordOutOfRange {
        /// Offending record index.
        index: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace data truncated"),
            DecodeError::BadMagic => write!(f, "not a FXT1 trace"),
            DecodeError::BadOp(op) => write!(f, "unknown op code {op}"),
            DecodeError::BadName => write!(f, "trace name is not valid UTF-8"),
            DecodeError::RecordOutOfRange { index } => {
                write!(f, "record {index} has an lpn or page count out of range")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a trace into the `FXT1` binary format.
pub fn encode(trace: &Trace) -> Bytes {
    let name = trace.name.as_bytes();
    let mut buf = BytesMut::with_capacity(4 + 2 + name.len() + 8 + 8 + trace.len() * 24);
    buf.put_slice(MAGIC);
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    buf.put_u64_le(trace.footprint_pages);
    buf.put_u64_le(trace.requests.len() as u64);
    for r in &trace.requests {
        buf.put_f64_le(r.arrival_us);
        buf.put_u64_le(r.lpn());
        buf.put_u32_le(r.pages());
        buf.put_u8(match r.op() {
            IoOp::Read => 0,
            IoOp::Write => 1,
        });
        buf.put_slice(&[0u8; 3]); // record padding to 24 bytes
    }
    buf.freeze()
}

/// Parses a trace from the `FXT1` binary format.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated input, a bad magic prefix, an
/// unknown op code, a non-UTF-8 name or a record out of the in-memory
/// request's range.
pub fn decode(mut data: &[u8]) -> Result<Trace, DecodeError> {
    if data.len() < 6 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let name_len = data.get_u16_le() as usize;
    if data.remaining() < name_len + 16 {
        return Err(DecodeError::Truncated);
    }
    let name = std::str::from_utf8(&data[..name_len])
        .map_err(|_| DecodeError::BadName)?
        .to_owned();
    data.advance(name_len);
    let footprint_pages = data.get_u64_le();
    let count = data.get_u64_le();
    // A hostile count can overflow the record-size product; no input that
    // large can hold its records, so it is truncated either way.
    match count.checked_mul(24) {
        Some(need) if need <= data.remaining() as u64 => {}
        _ => return Err(DecodeError::Truncated),
    }
    // Fits in usize: the records were just bounded by the input length.
    let mut requests = Vec::with_capacity(count as usize);
    for index in 0..count {
        let arrival_us = data.get_f64_le();
        let lpn = data.get_u64_le();
        let pages = data.get_u32_le();
        let op = match data.get_u8() {
            0 => IoOp::Read,
            1 => IoOp::Write,
            other => return Err(DecodeError::BadOp(other)),
        };
        data.advance(3);
        let request = IoRequest::try_new(arrival_us, lpn, pages, op)
            .ok_or(DecodeError::RecordOutOfRange { index })?;
        requests.push(request);
    }
    Ok(Trace {
        name,
        footprint_pages,
        requests,
    })
}

/// Writes a trace to a file in the `FXT1` format.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save<P: AsRef<std::path::Path>>(trace: &Trace, path: P) -> std::io::Result<()> {
    std::fs::write(path, encode(trace))
}

/// Reads a trace from a `FXT1` file.
///
/// # Errors
///
/// Propagates filesystem errors; decoding failures surface as
/// `InvalidData`.
pub fn load<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<Trace> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn file_roundtrip() {
        let trace = WorkloadSpec::win2()
            .with_requests(500)
            .generate(&mut StdRng::seed_from_u64(9));
        let path = std::env::temp_dir().join("flexlevel_trace_roundtrip.fxt");
        save(&trace, &path).unwrap();
        let loaded = load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, trace);
    }

    #[test]
    fn load_rejects_garbage_file() {
        let path = std::env::temp_dir().join("flexlevel_trace_garbage.fxt");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = load(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn roundtrip() {
        let spec = WorkloadSpec::fin2().with_requests(1_000);
        let trace = spec.generate(&mut StdRng::seed_from_u64(1));
        let encoded = encode(&trace);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let trace = Trace {
            name: "empty".into(),
            footprint_pages: 42,
            requests: vec![],
        };
        assert_eq!(decode(&encode(&trace)).unwrap(), trace);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decode(b"NOPE\x00\x00\x00\x00"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let trace = WorkloadSpec::fin2()
            .with_requests(10)
            .generate(&mut StdRng::seed_from_u64(2));
        let encoded = encode(&trace);
        for cut in [0, 3, 10, encoded.len() - 1] {
            assert_eq!(
                decode(&encoded[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_overflowing_record_count() {
        // `count * 24` wraps to 8 for this count; the header must still
        // be rejected, not trusted into a huge allocation.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 24 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        assert_eq!(bytes.len(), 30);
        assert_eq!(decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_bad_op() {
        let trace = Trace {
            name: "x".into(),
            footprint_pages: 10,
            requests: vec![IoRequest::new(0.0, 0, 1, IoOp::Read)],
        };
        let mut bytes = encode(&trace).to_vec();
        // Corrupt the op byte (offset: 4 magic + 2 len + 1 name + 16 header
        // + 20 into the record).
        let op_offset = 4 + 2 + 1 + 16 + 20;
        bytes[op_offset] = 9;
        assert_eq!(decode(&bytes), Err(DecodeError::BadOp(9)));
    }

    #[test]
    fn record_size_is_compact() {
        let trace = WorkloadSpec::web1()
            .with_requests(1_000)
            .generate(&mut StdRng::seed_from_u64(3));
        let encoded = encode(&trace);
        // 24 bytes per request plus a small header.
        assert!(encoded.len() < 24 * 1_000 + 64);
    }

    /// One raw 24-byte record.
    fn record(arrival_us: f64, lpn: u64, pages: u32, op: u8) -> Vec<u8> {
        let mut bytes = arrival_us.to_le_bytes().to_vec();
        bytes.extend_from_slice(&lpn.to_le_bytes());
        bytes.extend_from_slice(&pages.to_le_bytes());
        bytes.extend_from_slice(&[op, 0, 0, 0]);
        bytes
    }

    #[test]
    fn rejects_records_out_of_packed_range() {
        let ok = record(0.0, 3, 1, 0);
        for (lpn, pages) in [
            (u64::MAX, 1),
            (IoRequest::LPN_LIMIT, 1),
            (3, u32::MAX),
            (3, IoRequest::MAX_PAGES + 1),
        ] {
            let bytes = framed("h", &[ok.clone(), record(1.0, lpn, pages, 1)], &[]);
            assert_eq!(
                decode(&bytes),
                Err(DecodeError::RecordOutOfRange { index: 1 })
            );
        }
        // The largest packable values still decode and re-encode exactly.
        let edge = record(2.0, IoRequest::LPN_LIMIT - 1, IoRequest::MAX_PAGES, 1);
        let bytes = framed("h", &[ok, edge], &[]);
        let trace = decode(&bytes).expect("in-range records decode");
        assert_eq!(trace.requests[1].lpn(), IoRequest::LPN_LIMIT - 1);
        assert_eq!(trace.requests[1].pages(), IoRequest::MAX_PAGES);
        assert_eq!(&encode(&trace)[..], &bytes[..]);
    }

    /// A well-formed header over raw 24-byte `records`, then `tail`.
    fn framed(name: &str, records: &[Vec<u8>], tail: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(name.len() as u16).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for r in records {
            bytes.extend_from_slice(r);
        }
        bytes.extend_from_slice(tail);
        bytes
    }

    proptest::proptest! {
        /// Untrusted bytes — raw, or a valid frame with one byte
        /// scrambled and possibly a forged record count — decode to a
        /// typed error or a trace, never a panic. A decoded trace
        /// re-encodes to the input's prefix, except for the three padding
        /// bytes per record, which decoding ignores and encoding writes
        /// as zero. With `in_range` the records' top lpn and page bytes
        /// are cleared first, so most frames fit `IoRequest`'s packing
        /// and the re-encoding check sees non-empty traces.
        #[test]
        fn decode_is_total_and_reencodes_its_prefix(
            raw in proptest::collection::vec(0u8..=255, 0..96),
            name in "[a-z]{0,6}",
            records in proptest::collection::vec(proptest::collection::vec(0u8..=2, 24), 0..4),
            in_range in proptest::bool::ANY,
            flip in (0usize..256, 0u8..=255),
            forged_count in (proptest::bool::ANY, 0u64..=u64::MAX),
        ) {
            let mut records = records;
            if in_range {
                for record in &mut records {
                    record[14..16].fill(0); // lpn < 2^48
                    record[18..20].fill(0); // pages ≤ 0x0202
                }
            }
            let mut framed = framed(&name, &records, &raw);
            if forged_count.0 {
                let at = 4 + 2 + name.len() + 8;
                framed[at..at + 8].copy_from_slice(&forged_count.1.to_le_bytes());
            }
            let at = flip.0 % framed.len();
            framed[at] ^= flip.1;
            for input in [&raw, &framed] {
                let Ok(trace) = decode(input) else { continue };
                let encoded = encode(&trace);
                proptest::prop_assert!(encoded.len() <= input.len());
                let records_at = encoded.len() - trace.len() * 24;
                let mut expected = input[..encoded.len()].to_vec();
                for record in expected[records_at..].chunks_mut(24) {
                    record[21..].fill(0);
                }
                proptest::prop_assert_eq!(&encoded[..], &expected[..]);
            }
        }
    }
}
