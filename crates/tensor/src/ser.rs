//! Binary wire format for tensors and named tensor maps.
//!
//! The baseline approach serializes "the model's internal data structure that
//! maps each layer to its parameters" (§3.1); the parameter-update approach
//! serializes the pruned subset. This module defines that format:
//!
//! ```text
//! tensor   := MAGIC(u32 'MMTS') version(u16) rank(u16) dims(u64 × rank) data(f32-le × numel)
//! state    := MAGIC(u32 'MMSD') version(u16) count(u32)
//!             entry := name_len(u32) name(utf8) tensor
//! ```
//!
//! Everything is little-endian. The format is versioned so stores written by
//! one release stay readable by the next (the paper's environment-tracking
//! requirement applied to ourselves).

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use bytes::{BufMut, Bytes, BytesMut};

const TENSOR_MAGIC: u32 = 0x4d4d5453; // "MMTS"
const STATE_MAGIC: u32 = 0x4d4d5344; // "MMSD"
const VERSION: u16 = 1;

/// Serializes one tensor into `out`.
pub fn write_tensor(t: &Tensor, out: &mut BytesMut) {
    out.put_u32_le(TENSOR_MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(t.shape().rank() as u16);
    for &d in t.shape().dims() {
        out.put_u64_le(d as u64);
    }
    out.reserve(t.numel() * 4);
    // Bulk-convert through a stack buffer: per-element `put_f32_le` calls
    // are measurably slower for multi-hundred-MB state dicts.
    let mut buf = [0u8; 4096];
    for chunk in t.data().chunks(1024) {
        for (i, v) in chunk.iter().enumerate() {
            buf[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
        }
        out.put_slice(&buf[..chunk.len() * 4]);
    }
}

/// Exact serialized size of one tensor.
fn tensor_wire_size(t: &Tensor) -> usize {
    8 + t.shape().rank() * 8 + t.numel() * 4
}

/// Serializes one tensor to an owned buffer.
pub fn tensor_to_bytes(t: &Tensor) -> Bytes {
    let mut out = BytesMut::with_capacity(tensor_wire_size(t));
    write_tensor(t, &mut out);
    out.freeze()
}

/// Bounds-checked little-endian reads over a borrowed buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Splits off the next `n` bytes, or reports `what` as truncated.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TensorError> {
        if self.buf.len() < n {
            return Err(TensorError::Corrupt(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u16(&mut self, what: &str) -> Result<u16, TensorError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, TensorError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TensorError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn finish(&self) -> Result<(), TensorError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(TensorError::Corrupt(format!("{} trailing bytes", self.buf.len())))
        }
    }
}

/// One serialized tensor, validated but not decoded: its dims and a view
/// of its little-endian `f32` bytes inside the encoded buffer.
#[derive(Debug)]
pub struct EncodedTensor<'a> {
    dims: Vec<usize>,
    data: &'a [u8],
}

impl EncodedTensor<'_> {
    /// The tensor's shape dims.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Decodes the data straight into `dst`, which must have the tensor's
    /// element count.
    pub fn decode_into(&self, dst: &mut [f32]) -> Result<(), TensorError> {
        if dst.len() * 4 != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.data.len() / 4,
                actual: dst.len(),
            });
        }
        for (d, b) in dst.iter_mut().zip(self.data.chunks_exact(4)) {
            *d = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Ok(())
    }

    /// Decodes into a freshly allocated tensor.
    pub fn to_tensor(&self) -> Result<Tensor, TensorError> {
        let mut data = vec![0.0f32; self.data.len() / 4];
        self.decode_into(&mut data)?;
        Tensor::from_vec(Shape::new(self.dims.clone()), data)
    }
}

/// Parses one tensor header and claims its data bytes.
fn parse_tensor<'a>(r: &mut Reader<'a>) -> Result<EncodedTensor<'a>, TensorError> {
    let magic = r.u32("tensor header")?;
    if magic != TENSOR_MAGIC {
        return Err(TensorError::Corrupt(format!("bad tensor magic {magic:#x}")));
    }
    let version = r.u16("tensor header")?;
    if version != VERSION {
        return Err(TensorError::UnsupportedVersion(version));
    }
    let rank = r.u16("tensor header")? as usize;
    let mut dims = Vec::with_capacity(rank);
    let mut numel = 1usize;
    for _ in 0..rank {
        let d = usize::try_from(r.u64("dims")?)
            .map_err(|_| TensorError::Corrupt("dim overflows usize".into()))?;
        numel = numel.saturating_mul(d);
        dims.push(d);
    }
    if numel > (1 << 33) {
        // Defensive cap (~8G elements): a corrupt header must not trigger an
        // allocation-of-doom in whoever decodes the data.
        return Err(TensorError::Corrupt(format!("implausible element count {numel}")));
    }
    let data = r.take(numel * 4, "data")?;
    Ok(EncodedTensor { dims, data })
}

/// Deserializes one tensor from a full buffer, requiring full consumption.
pub fn tensor_from_bytes(bytes: &[u8]) -> Result<Tensor, TensorError> {
    let mut r = Reader { buf: bytes };
    let t = parse_tensor(&mut r)?;
    r.finish()?;
    t.to_tensor()
}

/// Serializes an ordered list of `(name, tensor)` pairs — a state dict.
///
/// Order is preserved (and significant): mmlib's layer-wise diffing walks
/// both state dicts in the model's canonical layer order.
pub fn state_to_bytes<'a, I>(entries: I) -> Bytes
where
    I: IntoIterator<Item = (&'a str, &'a Tensor)>,
    I::IntoIter: ExactSizeIterator,
{
    let entries: Vec<(&'a str, &'a Tensor)> = entries.into_iter().collect();
    // Reserve the exact size: growth-by-doubling reallocs of multi-hundred-MB
    // buffers are very costly on page-fault-expensive hosts.
    let total: usize = 10
        + entries
            .iter()
            .map(|(n, t)| 4 + n.len() + tensor_wire_size(t))
            .sum::<usize>();
    let iter = entries.into_iter();
    let mut out = BytesMut::with_capacity(total);
    out.put_u32_le(STATE_MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(iter.len() as u32);
    for (name, tensor) in iter {
        out.put_u32_le(name.len() as u32);
        out.put_slice(name.as_bytes());
        write_tensor(tensor, &mut out);
    }
    out.freeze()
}

/// One entry of an encoded state dict, borrowed from the encoded buffer.
#[derive(Debug)]
pub struct EncodedEntry<'a> {
    /// The entry's path (e.g. `"layer1.0.body.conv1.weight"`).
    pub name: &'a str,
    /// The entry's tensor, not yet decoded.
    pub tensor: EncodedTensor<'a>,
}

/// Parses a state dict written by [`state_to_bytes`] without copying any
/// tensor data. Every framing check happens here — magic, version,
/// truncation, implausible sizes, non-UTF-8 names, trailing bytes — so a
/// caller that decodes the entries into existing tensors
/// ([`EncodedTensor::decode_into`]) touches them only once the whole
/// buffer is known to be well formed.
pub fn parse_state(bytes: &[u8]) -> Result<Vec<EncodedEntry<'_>>, TensorError> {
    let mut r = Reader { buf: bytes };
    let magic = r.u32("state header")?;
    if magic != STATE_MAGIC {
        return Err(TensorError::Corrupt(format!("bad state magic {magic:#x}")));
    }
    let version = r.u16("state header")?;
    if version != VERSION {
        return Err(TensorError::UnsupportedVersion(version));
    }
    let count = r.u32("state header")? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let name_len = r.u32("entry name length")? as usize;
        let name = std::str::from_utf8(r.take(name_len, "entry name")?)
            .map_err(|_| TensorError::Corrupt("entry name is not utf-8".into()))?;
        let tensor = parse_tensor(&mut r)?;
        entries.push(EncodedEntry { name, tensor });
    }
    r.finish()?;
    Ok(entries)
}

/// Deserializes a state dict written by [`state_to_bytes`] into owned
/// tensors.
pub fn state_from_bytes(bytes: &[u8]) -> Result<Vec<(String, Tensor)>, TensorError> {
    parse_state(bytes)?
        .into_iter()
        .map(|e| Ok((e.name.to_string(), e.tensor.to_tensor()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Pcg32;

    #[test]
    fn tensor_round_trip_bit_exact() {
        let mut rng = Pcg32::seeded(1);
        let t = Tensor::rand_normal([3, 5, 2], 0.0, 1.0, &mut rng);
        let bytes = tensor_to_bytes(&t);
        let back = tensor_from_bytes(&bytes).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(-0.0);
        let back = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn nan_and_inf_round_trip() {
        let t = Tensor::from_vec([3], vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]).unwrap();
        let back = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(tensor_from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            tensor_from_bytes(&bytes),
            Err(TensorError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_point() {
        let bytes = tensor_to_bytes(&Tensor::zeros([4, 4])).to_vec();
        for cut in 0..bytes.len() {
            assert!(tensor_from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes.push(0);
        assert!(tensor_from_bytes(&bytes).is_err());
    }

    #[test]
    fn state_dict_round_trip_preserves_order() {
        let mut rng = Pcg32::seeded(2);
        let entries = [("conv1.weight".to_string(), Tensor::rand_normal([4, 3, 3, 3], 0.0, 1.0, &mut rng)),
            ("bn1.weight".to_string(), Tensor::ones([4])),
            ("fc.bias".to_string(), Tensor::zeros([10]))];
        let bytes = state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t)));
        let back = state_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for ((n1, t1), (n2, t2)) in entries.iter().zip(&back) {
            assert_eq!(n1, n2);
            assert!(t1.bit_eq(t2));
        }
    }

    #[test]
    fn empty_state_dict_round_trips() {
        let bytes = state_to_bytes(std::iter::empty::<(&str, &Tensor)>().collect::<Vec<_>>());
        assert!(state_from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn state_rejects_non_utf8_name() {
        let entries = [("x".to_string(), Tensor::zeros([1]))];
        let mut bytes = state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t))).to_vec();
        // name length is at offset 10..14; the name byte itself at 14.
        bytes[14] = 0xff;
        assert!(state_from_bytes(&bytes).is_err());
    }

    fn two_entry_state() -> Vec<u8> {
        let entries =
            [("a.weight".to_string(), Tensor::ones([2, 3])), ("b".to_string(), Tensor::zeros([4]))];
        state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t))).to_vec()
    }

    #[test]
    fn state_rejects_truncation_at_every_point() {
        let bytes = two_entry_state();
        assert_eq!(parse_state(&bytes).unwrap().len(), 2);
        for cut in 0..bytes.len() {
            assert!(parse_state(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn state_rejects_trailing_garbage() {
        let mut bytes = two_entry_state();
        bytes.push(0);
        assert!(matches!(parse_state(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_dims_whose_product_overflows() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TENSOR_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        bytes.extend_from_slice(&16u64.to_le_bytes());
        assert!(matches!(tensor_from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn decode_into_checks_length_and_round_trips() {
        let t = Tensor::rand_normal([3, 7], 0.0, 1.0, &mut Pcg32::seeded(4));
        let bytes = state_to_bytes([("t", &t)]);
        let entries = parse_state(&bytes).unwrap();
        let mut dst = Tensor::zeros([3, 7]);
        entries[0].tensor.decode_into(dst.data_mut()).unwrap();
        assert!(dst.bit_eq(&t));
        assert_eq!(entries[0].tensor.dims(), &[3, 7]);
        assert!(entries[0].tensor.decode_into(&mut [0.0; 20]).is_err());
    }
}
