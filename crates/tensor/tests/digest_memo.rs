//! The per-tensor digest memo: every write path drops it, copies carry it,
//! and `mmlib_tensor_hash_bytes_total` counts only bytes actually hashed.

use std::sync::Mutex;

use mmlib_tensor::hash::{hash_tensor, Digest};
use mmlib_tensor::hash_par::hash_tensors_with;
use mmlib_tensor::{Pcg32, Tensor};

/// Serializes the tests: they all hash, and some read the process-wide
/// hash counter.
static COUNTER: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    COUNTER.lock().unwrap_or_else(|e| e.into_inner())
}

fn hashed_bytes() -> u64 {
    mmlib_obs::recorder().counter_value("mmlib_tensor_hash_bytes_total", None)
}

fn sample(seed: u64) -> Tensor {
    Tensor::rand_normal([3, 4], 0.0, 1.0, &mut Pcg32::seeded(seed))
}

/// The digest of a never-hashed copy of `t`'s current shape and bytes.
fn fresh_digest(t: &Tensor) -> Digest {
    hash_tensor(&Tensor::from_vec(t.shape().clone(), t.data().to_vec()).unwrap())
}

/// A write applied to a tensor; the second argument is an operand.
type Mutator = fn(Tensor, &Tensor) -> Tensor;

#[test]
fn every_mutator_drops_the_memo() {
    let _guard = serial();
    let mutators: [(&str, Mutator); 8] = [
        ("data_mut", |mut t, _| {
            t.data_mut()[5] += 1.0;
            t
        }),
        ("add_assign", |mut t, other| {
            t.add_assign(other).unwrap();
            t
        }),
        ("sub_assign", |mut t, other| {
            t.sub_assign(other).unwrap();
            t
        }),
        ("axpy", |mut t, other| {
            t.axpy(0.5, other).unwrap();
            t
        }),
        ("scale", |mut t, _| {
            t.scale(3.0);
            t
        }),
        ("fill", |mut t, _| {
            t.fill(7.0);
            t
        }),
        ("reshape", |t, _| t.reshape([4, 3]).unwrap()),
        ("copy_from", |mut t, other| {
            t.copy_from(other).unwrap();
            t
        }),
    ];
    let other = sample(2);
    for (name, mutate) in mutators {
        let t = sample(1);
        let before = hash_tensor(&t);
        assert_eq!(t.cached_digest(), Some(before), "{name}: hashing fills the memo");
        let t = mutate(t, &other);
        assert_eq!(t.cached_digest(), None, "{name}: the write dropped the memo");
        let after = hash_tensor(&t);
        assert_ne!(after, before, "{name}");
        assert_eq!(after, fresh_digest(&t), "{name}");
    }
}

#[test]
fn failed_writes_keep_a_valid_memo() {
    let _guard = serial();
    let mut t = sample(1);
    let d = hash_tensor(&t);
    assert!(t.add_assign(&Tensor::zeros([2])).is_err());
    assert!(t.copy_from(&Tensor::zeros([12])).is_err());
    assert_eq!(hash_tensor(&t), d);
    assert_eq!(d, fresh_digest(&t));
}

#[test]
fn copies_carry_the_memo_and_hash_for_free() {
    let _guard = serial();
    let t = sample(4);
    let before = hashed_bytes();
    let d = hash_tensor(&t);
    assert_eq!(hashed_bytes() - before, t.nbytes() as u64);

    let before = hashed_bytes();
    let cloned = t.clone();
    let mut copied = Tensor::zeros([3, 4]);
    copied.copy_from(&t).unwrap();
    assert_eq!(hash_tensor(&t), d);
    assert_eq!(hash_tensor(&cloned), d);
    assert_eq!(hash_tensor(&copied), d);
    assert_eq!(hashed_bytes() - before, 0, "memo hits hash nothing");
}

#[test]
fn parallel_hashing_spreads_only_memo_less_tensors() {
    let _guard = serial();
    let owned: Vec<Tensor> = (0..9).map(sample).collect();
    for t in &owned[..6] {
        hash_tensor(t);
    }
    let refs: Vec<&Tensor> = owned.iter().collect();
    let before = hashed_bytes();
    let digests = hash_tensors_with(&refs, 4);
    let cold: u64 = owned[6..].iter().map(|t| t.nbytes() as u64).sum();
    assert_eq!(hashed_bytes() - before, cold);
    let expect: Vec<Digest> = owned.iter().map(fresh_digest).collect();
    assert_eq!(digests, expect);
}

#[test]
fn json_form_has_no_memo() {
    let _guard = serial();
    let t = Tensor::from_vec([2, 2], vec![1.0, -2.5, 0.0, 4.0]).unwrap();
    hash_tensor(&t);
    let json = serde_json::to_string(&t).unwrap();
    assert_eq!(json, r#"{"shape":[2,2],"data":[1.0,-2.5,0.0,4.0]}"#);
    let back: Tensor = serde_json::from_str(&json).unwrap();
    assert!(back.bit_eq(&t));
    assert_eq!(back.cached_digest(), None);
    // A length that disagrees with the shape is rejected, not loaded.
    let bad = r#"{"shape":[2,2],"data":[1.0]}"#;
    assert!(serde_json::from_str::<Tensor>(bad).is_err());
}
