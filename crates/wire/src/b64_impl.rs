//! Minimal standard-alphabet base64 (RFC 4648, padded). The workspace
//! builds hermetically, so this ~80-line codec stands in for the `base64`
//! crate; proto v2 uses it to carry binary tree records inside JSON
//! string fields.

use crate::WireError;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode `data` as padded standard base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Marks a byte outside the alphabet (padding included) in [`SEXTETS`].
const INVALID: u8 = 0x80;

/// Byte → sextet value, or [`INVALID`].
const SEXTETS: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// The error for byte `c` at `offset`, once the fast path found that a
/// quad holds a byte outside the alphabet.
fn bad_byte(c: u8, offset: usize) -> WireError {
    if c == b'=' {
        WireError::corrupt(offset, "misplaced base64 padding")
    } else {
        WireError::corrupt(offset, format!("invalid base64 byte 0x{c:02x}"))
    }
}

/// Sextets of `chars`, or the error for the first byte outside the
/// alphabet (`base` is the offset of `chars[0]`).
fn sextets(chars: &[u8], base: usize) -> Result<u32, WireError> {
    let mut n = 0u32;
    for (j, &c) in chars.iter().enumerate() {
        let v = SEXTETS[c as usize];
        if v & INVALID != 0 {
            return Err(bad_byte(c, base + j));
        }
        n = (n << 6) | u32::from(v);
    }
    Ok(n)
}

/// Decode padded standard base64. Rejects bad lengths, alphabet
/// violations, and misplaced padding with typed errors.
pub fn decode(s: &str) -> Result<Vec<u8>, WireError> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(WireError::corrupt(
            bytes.len(),
            "base64 length not a multiple of 4",
        ));
    }
    let Some(last_at) = bytes.len().checked_sub(4) else {
        return Ok(Vec::new());
    };
    let mut out = vec![0u8; bytes.len() / 4 * 3];
    // Every quad but the last: four table lookups, one validity test.
    for (i, (quad, dst)) in bytes[..last_at]
        .chunks_exact(4)
        .zip(out.chunks_exact_mut(3))
        .enumerate()
    {
        let v = [0, 1, 2, 3].map(|j| SEXTETS[quad[j] as usize]);
        if (v[0] | v[1] | v[2] | v[3]) & INVALID != 0 {
            let base = i * 4;
            if quad[3] == b'=' {
                return Err(WireError::corrupt(base, "misplaced base64 padding"));
            }
            return Err(sextets(quad, base).expect_err("quad holds an invalid byte"));
        }
        let n = v.iter().fold(0u32, |n, &x| (n << 6) | u32::from(x));
        dst.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    // The last quad may carry one or two `=`.
    let quad = &bytes[last_at..];
    let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
    if pads > 2 {
        return Err(WireError::corrupt(last_at, "misplaced base64 padding"));
    }
    let n = sextets(&quad[..4 - pads], last_at)? << (6 * pads as u32);
    let tail = last_at / 4 * 3;
    out[tail..].copy_from_slice(&n.to_be_bytes()[1..]);
    out.truncate(out.len() - pads);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original per-quad decoder, kept as the oracle for [`decode`].
    fn reference_decode(s: &str) -> Result<Vec<u8>, WireError> {
        fn sextet(c: u8, offset: usize) -> Result<u32, WireError> {
            match c {
                b'A'..=b'Z' => Ok(u32::from(c - b'A')),
                b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
                b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
                b'+' => Ok(62),
                b'/' => Ok(63),
                _ => Err(WireError::corrupt(
                    offset,
                    format!("invalid base64 byte 0x{c:02x}"),
                )),
            }
        }
        let bytes = s.as_bytes();
        if !bytes.len().is_multiple_of(4) {
            return Err(WireError::corrupt(
                bytes.len(),
                "base64 length not a multiple of 4",
            ));
        }
        let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
        for (i, quad) in bytes.chunks_exact(4).enumerate() {
            let base = i * 4;
            let last = base + 4 == bytes.len();
            let pads = quad.iter().rev().take_while(|&&c| c == b'=').count();
            if pads > 2 || (pads > 0 && !last) {
                return Err(WireError::corrupt(base, "misplaced base64 padding"));
            }
            let mut n = 0u32;
            for (j, &c) in quad.iter().take(4 - pads).enumerate() {
                if c == b'=' {
                    return Err(WireError::corrupt(base + j, "misplaced base64 padding"));
                }
                n = (n << 6) | sextet(c, base + j)?;
            }
            n <<= 6 * pads as u32;
            out.push((n >> 16) as u8);
            if pads < 2 {
                out.push((n >> 8) as u8);
            }
            if pads < 1 {
                out.push(n as u8);
            }
        }
        Ok(out)
    }

    fn same_as_reference(s: &str) {
        assert_eq!(
            format!("{:?}", decode(s)),
            format!("{:?}", reference_decode(s)),
            "input {s:?}"
        );
    }

    /// Bytes drawn mostly from the alphabet, with padding and a few
    /// outsiders, so random strings hit every error path.
    fn b64ish(raw: &[u8]) -> String {
        const PICK: &[u8] = b"ABCXYZabcxyz0189+/=====!- \x7f";
        raw.iter()
            .map(|&b| PICK[b as usize % PICK.len()] as char)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_decoder_matches_reference_on_random_strings(
            raw in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            same_as_reference(&b64ish(&raw));
        }

        #[test]
        fn table_decoder_matches_reference_on_corrupted_encodings(
            data in proptest::collection::vec(any::<u8>(), 0..40),
            at in any::<usize>(),
            with in any::<u8>(),
            cut in any::<usize>(),
        ) {
            let enc = encode(&data);
            same_as_reference(&enc);
            let mut bytes = enc.clone().into_bytes();
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] = b64ish(&[with]).as_bytes()[0];
                same_as_reference(std::str::from_utf8(&bytes).expect("ascii"));
            }
            same_as_reference(&enc[..cut % (enc.len() + 1)]);
        }
    }

    #[test]
    fn rfc4648_vectors() {
        for (plain, enc) in [
            (&b""[..], ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain), enc);
            assert_eq!(decode(enc).unwrap(), plain);
        }
    }

    #[test]
    fn binary_round_trip() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in ["Zg=", "Z!==", "====", "Zg==Zg==x", "Z===", "=g==", "Zm=v"] {
            assert!(decode(bad).is_err(), "{bad:?} should fail");
        }
        // Padding in a non-final quad.
        assert!(decode("Zg==Zm9v").is_err());
    }
}
