//! Dense `f32` tensors.

use std::sync::OnceLock;

use crate::error::TensorError;
use crate::hash::Digest;
use crate::prng::Pcg32;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor.
///
/// This is the unit of everything mmlib stores: a model parameter is a named
/// `Tensor`, a parameter update is a set of named `Tensor`s, and the probing
/// tool compares intermediate `Tensor`s layer by layer. Equality is exact
/// (bit-wise on the underlying `f32`s), because the paper's recoverability
/// definition demands the *exact* model, not an approximation.
///
/// A tensor memoizes its own SHA-256 digest ([`crate::hash::hash_tensor`])
/// until it is next written: every mutating method goes through one private
/// accessor that clears the memo, so the memo can only ever hold the digest
/// of the tensor's current shape and bytes. Copies ([`Clone`],
/// [`Tensor::copy_from`]) carry it, since their bytes are identical.
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    digest: OnceLock<Digest>,
}

impl Tensor {
    /// A memo-less tensor; the caller has matched `data.len()` to `shape`.
    fn raw(shape: Shape, data: Vec<f32>) -> Tensor {
        Tensor { shape, data, digest: OnceLock::new() }
    }

    /// Creates a tensor from a shape and a data buffer.
    ///
    /// Fails with [`TensorError::LengthMismatch`] if the buffer length does
    /// not equal `shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch { expected: shape.numel(), actual: data.len() });
        }
        Ok(Tensor::raw(shape, data))
    }

    /// A tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::raw(shape, vec![0.0; n])
    }

    /// A tensor of ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::raw(shape, vec![value; n])
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor::raw(Shape::scalar(), vec![value])
    }

    /// A tensor with i.i.d. uniform entries in `[lo, hi)` drawn from `rng`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Pcg32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::raw(shape, (0..n).map(|_| rng.uniform(lo, hi)).collect())
    }

    /// A tensor with i.i.d. normal entries drawn from `rng`.
    pub fn rand_normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Pcg32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::raw(shape, (0..n).map(|_| rng.normal(mean, std)).collect())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes of the raw parameter data (4 bytes per element).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the flat data buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.write()
    }

    /// The write path every mutator goes through: drops the digest memo,
    /// then hands out the buffer.
    fn write(&mut self) -> &mut [f32] {
        self.digest.take();
        &mut self.data
    }

    /// The memoized digest, if this tensor has been hashed since its last
    /// write.
    pub fn cached_digest(&self) -> Option<Digest> {
        self.digest.get().copied()
    }

    /// The digest memo cell, filled by [`crate::hash::hash_tensor`].
    pub(crate) fn digest_memo(&self) -> &OnceLock<Digest> {
        &self.digest
    }

    /// Overwrites this tensor with `src`'s data and digest memo, in place
    /// (no reallocation).
    ///
    /// Fails with [`TensorError::ShapeMismatch`] unless the shapes are
    /// equal.
    pub fn copy_from(&mut self, src: &Tensor) -> Result<(), TensorError> {
        self.check_shape("copy_from", src)?;
        self.write().copy_from_slice(&src.data);
        self.digest = src.digest.clone();
        Ok(())
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a flat index.
    pub fn get(&self, index: usize) -> Result<f32, TensorError> {
        self.data
            .get(index)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds { index, len: self.data.len() })
    }

    /// Element at a multi-index.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        let off = self
            .shape
            .offset(index)
            .ok_or(TensorError::IndexOutOfBounds { index: usize::MAX, len: self.data.len() })?;
        Ok(self.data[off])
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::LengthMismatch { expected: shape.numel(), actual: self.data.len() });
        }
        // The shape is hashed too, so a reshape is a write.
        self.write();
        self.shape = shape;
        Ok(self)
    }

    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.zip_assign("add_assign", other, |a, b| a + b)
    }

    /// `self -= other`, element-wise.
    pub fn sub_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.zip_assign("sub_assign", other, |a, b| a - b)
    }

    /// `self += alpha * other` (axpy), element-wise.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.zip_assign("axpy", other, |a, b| a + alpha * b)
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in self.write() {
            *v *= alpha;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.write().fill(value);
    }

    /// Sum of all elements, accumulated serially left-to-right in `f64`.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// Returns `None` on shape mismatch. `Some(0.0)` means the tensors hold
    /// numerically equal values (note: bit-exact equality additionally
    /// distinguishes `-0.0`/`0.0` and NaN payloads — use [`Tensor::bit_eq`]).
    pub fn max_abs_diff(&self, other: &Tensor) -> Option<f32> {
        if self.shape != other.shape {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max),
        )
    }

    /// Bit-exact equality: same shape and identical `f32` bit patterns.
    ///
    /// This is the equality the paper's "exact model representation" demands:
    /// a recovered model must reproduce the saved model bit for bit.
    pub fn bit_eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn zip_assign(
        &mut self,
        op: &'static str,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), TensorError> {
        self.check_shape(op, other)?;
        for (a, b) in self.write().iter_mut().zip(&other.data) {
            *a = f(*a, *b);
        }
        Ok(())
    }

    fn check_shape(&self, op: &'static str, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                expected: self.shape.dims().to_vec(),
                actual: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }
}

// Hand-written so the memo stays out of the JSON form
// `{"shape": ..., "data": [...]}`.
impl Serialize for Tensor {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::value::Map::new();
        map.insert("shape".to_string(), self.shape.to_value());
        map.insert("data".to_string(), self.data.to_value());
        serde::Value::Object(map)
    }
}

/// The JSON form's fields, decoded before the length check.
#[derive(Deserialize)]
struct TensorFields {
    shape: Shape,
    data: Vec<f32>,
}

impl Deserialize for Tensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let TensorFields { shape, data } = TensorFields::from_value(v)?;
        Tensor::from_vec(shape, data).map_err(serde::de::Error::custom)
    }
}

impl PartialEq for Tensor {
    /// Structural equality on shape and *bit patterns* of the data.
    ///
    /// Delegates to [`Tensor::bit_eq`] so that `==` matches the recovery
    /// invariant (and stays reflexive even in the presence of NaNs).
    fn eq(&self, other: &Self) -> bool {
        self.bit_eq(other)
    }
}

impl Eq for Tensor {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 3]),
            Err(TensorError::LengthMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn constructors_fill_correctly() {
        assert!(Tensor::zeros([3]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones([3]).data().iter().all(|&v| v == 1.0));
        assert!(Tensor::full([3], 2.5).data().iter().all(|&v| v == 2.5));
        assert_eq!(Tensor::scalar(7.0).numel(), 1);
    }

    #[test]
    fn elementwise_ops_work() {
        let mut a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[11.0, 22.0, 33.0]);
        a.sub_assign(&b).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.data(), &[21.0, 42.0, 63.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[10.5, 21.0, 31.5]);
    }

    #[test]
    fn ops_reject_shape_mismatch() {
        let mut a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(a.add_assign(&b).is_err());
        assert!(a.axpy(1.0, &b).is_err());
    }

    #[test]
    fn bit_eq_distinguishes_negative_zero() {
        let a = Tensor::from_vec([1], vec![0.0]).unwrap();
        let b = Tensor::from_vec([1], vec![-0.0]).unwrap();
        assert!(!a.bit_eq(&b));
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
    }

    #[test]
    fn bit_eq_is_reflexive_with_nan() {
        let a = Tensor::from_vec([1], vec![f32::NAN]).unwrap();
        assert!(a.bit_eq(&a.clone()));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
        let r = t.clone().reshape([3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape([4]).is_err());
    }

    #[test]
    fn at_indexes_row_major() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f32).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 5.0);
        assert_eq!(t.at(&[0, 1]).unwrap(), 1.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn rand_tensors_are_seeded() {
        let mut r1 = Pcg32::seeded(5);
        let mut r2 = Pcg32::seeded(5);
        let a = Tensor::rand_uniform([16], -1.0, 1.0, &mut r1);
        let b = Tensor::rand_uniform([16], -1.0, 1.0, &mut r2);
        assert!(a.bit_eq(&b));
    }
}
