//! "DER-lite": a deterministic, length-prefixed binary encoding.
//!
//! Real GSI encodes certificates with ASN.1 DER. For this reproduction a
//! full ASN.1 stack would add bulk without architectural insight, so
//! certificates, CRLs, tickets, and tokens use this small deterministic
//! format instead: every value is written exactly one way, so signing the
//! encoded bytes is well-defined.
//!
//! Wire format primitives:
//! * `u8`, `u32`, `u64` — fixed-width big-endian.
//! * `bytes` — `u32` big-endian length prefix + raw bytes.
//! * `str` — `bytes` of UTF-8.
//! * `biguint` — `bytes` of minimal big-endian magnitude.
//! * optional values — `u8` presence flag then the value.
//! * sequences — `u32` count then each element.

use gridsec_bignum::BigUint;

use crate::PkiError;

/// An append-only encoder.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Consume and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes encoded so far.
    pub(crate) fn encoded(&self) -> &[u8] {
        &self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a big-endian `u32`.
    pub(crate) fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append a length-prefixed big integer (minimal big-endian bytes).
    pub fn put_biguint(&mut self, v: &BigUint) -> &mut Self {
        self.put_bytes(&v.to_bytes_be())
    }

    /// Append an optional value via the provided closure.
    pub(crate) fn put_option<T>(
        &mut self,
        v: Option<&T>,
        f: impl FnOnce(&mut Self, &T),
    ) -> &mut Self {
        match v {
            None => {
                self.put_u8(0);
            }
            Some(inner) => {
                self.put_u8(1);
                f(self, inner);
            }
        }
        self
    }

    /// Append a sequence via the provided per-element closure.
    pub fn put_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
        self
    }

    /// Append bytes that are already an encoding, unframed: `put_raw` of
    /// what another encoder's `put_seq` wrote appends exactly what that
    /// `put_seq` would have.
    pub fn put_raw(&mut self, encoded: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(encoded);
        self
    }
}

/// A cursor-based decoder over encoded bytes.
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// `true` iff every byte has been consumed.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Error unless all input was consumed.
    pub fn expect_exhausted(&self) -> Result<(), PkiError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(PkiError::Decode("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PkiError> {
        if self.data.len() - self.pos < n {
            return Err(PkiError::Decode("unexpected end of input"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, PkiError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, PkiError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PkiError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, PkiError> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Read length-prefixed bytes in place.
    pub(crate) fn get_bytes_ref(&mut self) -> Result<&'a [u8], PkiError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PkiError> {
        String::from_utf8(self.get_bytes()?).map_err(|_| PkiError::Decode("invalid UTF-8"))
    }

    /// Read a length-prefixed big integer.
    pub fn get_biguint(&mut self) -> Result<BigUint, PkiError> {
        Ok(BigUint::from_bytes_be(&self.get_bytes()?))
    }

    /// Read an optional value via the provided closure.
    pub(crate) fn get_option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, PkiError>,
    ) -> Result<Option<T>, PkiError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(PkiError::Decode("bad option flag")),
        }
    }

    /// Read a sequence via the provided per-element closure.
    pub fn get_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, PkiError>,
    ) -> Result<Vec<T>, PkiError> {
        let count = self.get_u32()? as usize;
        // Sanity cap: each element takes at least one byte.
        if count > self.data.len() - self.pos {
            return Err(PkiError::Decode("sequence count exceeds input"));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Run `f`, also returning the exact bytes it read: the span a
    /// `put_raw` of them reproduces.
    pub(crate) fn get_raw<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, PkiError>,
    ) -> Result<(T, &'a [u8]), PkiError> {
        let start = self.pos;
        let value = f(self)?;
        Ok((value, &self.data[start..self.pos]))
    }
}

/// Types that encode to and decode from DER-lite.
pub trait Codec: Sized {
    /// Append this value to `enc`.
    fn encode(&self, enc: &mut Encoder);
    /// Read a value from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError>;

    /// Encode to a standalone byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decode from a standalone byte vector, requiring full consumption.
    fn from_bytes(data: &[u8]) -> Result<Self, PkiError> {
        let mut dec = Decoder::new(data);
        let v = Self::decode(&mut dec)?;
        dec.expect_exhausted()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7).put_u32(0xDEADBEEF).put_u64(u64::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert!(d.is_exhausted());
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello").put_str("wörld").put_bytes(b"");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_bytes().unwrap(), b"hello");
        assert_eq!(d.get_str().unwrap(), "wörld");
        assert_eq!(d.get_bytes().unwrap(), b"");
    }

    #[test]
    fn biguint_roundtrip() {
        let v = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let mut e = Encoder::new();
        e.put_biguint(&v).put_biguint(&BigUint::zero());
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_biguint().unwrap(), v);
        assert_eq!(d.get_biguint().unwrap(), BigUint::zero());
    }

    #[test]
    fn option_roundtrip() {
        let mut e = Encoder::new();
        e.put_option(Some(&42u64), |e, v| {
            e.put_u64(*v);
        });
        e.put_option(None::<&u64>, |e, v| {
            e.put_u64(*v);
        });
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_option(|d| d.get_u64()).unwrap(), Some(42));
        assert_eq!(d.get_option(|d| d.get_u64()).unwrap(), None);
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec!["a".to_string(), "bb".to_string(), "".to_string()];
        let mut e = Encoder::new();
        e.put_seq(&items, |e, s| {
            e.put_str(s);
        });
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_seq(|d| d.get_str()).unwrap(), items);
    }

    #[test]
    fn raw_seq_span_round_trips() {
        let items = vec![7u64, 8, 9];
        let mut e = Encoder::new();
        e.put_u8(1).put_seq(&items, |e, v| {
            e.put_u64(*v);
        });
        e.put_u8(2);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        d.get_u8().unwrap();
        let (got, span) = d.get_raw(|d| d.get_seq(|d| d.get_u64())).unwrap();
        assert_eq!(got, items);
        assert_eq!(span, &bytes[1..bytes.len() - 1], "count prefix included");
        assert_eq!(d.get_u8().unwrap(), 2);
        let mut again = Encoder::new();
        again.put_u8(1).put_raw(span).put_u8(2);
        assert_eq!(again.finish(), bytes);
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello world");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(d.get_bytes(), Err(PkiError::Decode(_))));
        // Truncated length prefix too.
        let mut d = Decoder::new(&bytes[..2]);
        assert!(matches!(d.get_u32(), Err(PkiError::Decode(_))));
    }

    #[test]
    fn bad_option_flag_errors() {
        let mut d = Decoder::new(&[2u8]);
        assert!(matches!(
            d.get_option(|d| d.get_u8()),
            Err(PkiError::Decode("bad option flag"))
        ));
    }

    #[test]
    fn hostile_seq_count_rejected() {
        // Sequence claiming u32::MAX elements should not allocate.
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_seq(|d| d.get_u8()).is_err());
    }

    #[test]
    fn expect_exhausted_detects_trailing() {
        let mut d = Decoder::new(&[1, 2, 3]);
        d.get_u8().unwrap();
        assert!(d.expect_exhausted().is_err());
        d.get_u8().unwrap();
        d.get_u8().unwrap();
        assert!(d.expect_exhausted().is_ok());
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut e = Encoder::new();
            e.put_str("abc").put_u64(99).put_bytes(&[1, 2, 3]);
            e.finish()
        };
        assert_eq!(build(), build());
    }
}
