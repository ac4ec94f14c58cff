//! Binary encoding of the serde [`Value`] tree.
//!
//! Every durable artifact (WAL record payloads, snapshot segments, the
//! meta blob) is a `Value` encoded by this module, so the binary path
//! serializes *exactly* what the JSON path serializes — the same derived
//! `Serialize` impls produce the tree both render. The encoding is
//! loss-free where JSON text is lossy-looking: `f64` travels as its raw
//! bit pattern, so decode(encode(v)) == v for every tree, which is what
//! makes recovered stores byte-identical to the JSON oracle.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! value   := tag payload
//! tag     := 0 Null | 1 false | 2 true | 3 U64 | 4 I64 | 5 F64
//!          | 6 Str  | 7 Array | 8 Object
//! U64/I64 := 8 bytes
//! F64     := 8 bytes (f64::to_bits)
//! Str     := len:u32 utf8[len]
//! Array   := count:u32 value[count]
//! Object  := count:u32 (Str value)[count]
//! ```

use serde::Value;

use crate::WalError;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue a 64-bit FNV-1a hash from `hash` over `bytes`. Both hashes
/// of the durable format are built on it: [`fnv1a`], and the shard
/// router's hash of a cluster key (`pse_serve::shard_of`), which feeds
/// its fields in one after another.
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 64-bit FNV-1a over a byte slice — the checksum guarding WAL records
/// and snapshot files.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Append the encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(n) => {
            out.push(TAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::I64(n) => {
            out.push(TAG_I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&u32_len(items.len()).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(TAG_OBJECT);
            out.extend_from_slice(&u32_len(fields.len()).to_le_bytes());
            for (key, value) in fields {
                encode_str(key, out);
                encode_value(value, out);
            }
        }
    }
}

/// Encode `v` into a fresh buffer.
pub fn encode_to_vec(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(v, &mut out);
    out
}

/// Decode one value occupying *exactly* `bytes` — trailing garbage is an
/// error, because every durable artifact is a single value.
pub fn decode_value(bytes: &[u8]) -> Result<Value, WalError> {
    let mut at = 0usize;
    let v = decode_at(bytes, &mut at)?;
    if at != bytes.len() {
        return Err(WalError::Corrupt(format!(
            "{} trailing bytes after encoded value",
            bytes.len() - at
        )));
    }
    Ok(v)
}

fn u32_len(n: usize) -> u32 {
    u32::try_from(n).expect("collection too large for the binary codec")
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&u32_len(s.len()).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], WalError> {
    let end = at
        .checked_add(n)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| WalError::Corrupt("encoded value truncated".to_string()))?;
    let slice = &bytes[*at..end];
    *at = end;
    Ok(slice)
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, WalError> {
    Ok(u32::from_le_bytes(take(bytes, at, 4)?.try_into().expect("4 bytes")))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, WalError> {
    Ok(u64::from_le_bytes(take(bytes, at, 8)?.try_into().expect("8 bytes")))
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, WalError> {
    let len = take_u32(bytes, at)? as usize;
    let raw = take(bytes, at, len)?;
    String::from_utf8(raw.to_vec())
        .map_err(|_| WalError::Corrupt("encoded string is not UTF-8".to_string()))
}

fn decode_at(bytes: &[u8], at: &mut usize) -> Result<Value, WalError> {
    let tag = take(bytes, at, 1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(take_u64(bytes, at)?)),
        TAG_I64 => Ok(Value::I64(take_u64(bytes, at)? as i64)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(take_u64(bytes, at)?))),
        TAG_STR => Ok(Value::Str(take_str(bytes, at)?)),
        TAG_ARRAY => {
            let count = take_u32(bytes, at)? as usize;
            // Each element costs at least one tag byte, so a count past
            // the remaining bytes is corruption — reject before allocating.
            if count > bytes.len() - *at {
                return Err(WalError::Corrupt("array count exceeds payload".to_string()));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(bytes, at)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let count = take_u32(bytes, at)? as usize;
            if count > bytes.len() - *at {
                return Err(WalError::Corrupt("object count exceeds payload".to_string()));
            }
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let key = take_str(bytes, at)?;
                let value = decode_at(bytes, at)?;
                fields.push((key, value));
            }
            Ok(Value::Object(fields))
        }
        other => Err(WalError::Corrupt(format!("unknown value tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let bytes = encode_to_vec(&v);
        let back = decode_value(&bytes).unwrap();
        // Compare via Debug so f64 NaN payloads and -0.0 are compared by
        // representation, not by `==`.
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(false));
        roundtrip(Value::Bool(true));
        roundtrip(Value::U64(0));
        roundtrip(Value::U64(u64::MAX));
        roundtrip(Value::I64(-1));
        roundtrip(Value::I64(i64::MIN));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Str("ünïcode × emoji 🎯".to_string()));
    }

    #[test]
    fn f64_bit_patterns_are_preserved() {
        for x in [0.0, -0.0, 1.5, 0.1 + 0.2, f64::MIN_POSITIVE, f64::MAX, 1.0 / 3.0] {
            let bytes = encode_to_vec(&Value::F64(x));
            let Value::F64(back) = decode_value(&bytes).unwrap() else { panic!("not F64") };
            assert_eq!(back.to_bits(), x.to_bits(), "bits of {x}");
        }
    }

    #[test]
    fn nested_containers_roundtrip() {
        roundtrip(Value::Array(vec![
            Value::Object(vec![
                ("k".to_string(), Value::Array(vec![Value::U64(1), Value::Null])),
                ("empty".to_string(), Value::Object(Vec::new())),
            ]),
            Value::Str("tail".to_string()),
        ]));
        roundtrip(Value::Array(Vec::new()));
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = encode_to_vec(&Value::Array(vec![
            Value::Str("abc".to_string()),
            Value::F64(2.5),
            Value::Object(vec![("x".to_string(), Value::U64(7))]),
        ]));
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_value(&bytes[..cut]), Err(WalError::Corrupt(_))),
                "cut at {cut} must not decode"
            );
        }
        assert!(decode_value(&bytes).is_ok());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&Value::U64(9));
        bytes.push(0);
        assert!(matches!(decode_value(&bytes), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn oversized_counts_are_rejected_without_allocating() {
        // TAG_ARRAY with a count claiming 4 billion elements in 0 bytes.
        let mut bytes = vec![TAG_ARRAY];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_value(&bytes), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
