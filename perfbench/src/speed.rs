//! The host-speed reference that `wall_s` and `setup_s` are scaled by.
//!
//! On a shared 2-vCPU VM, host speed drifted by up to ~1.8x in phases
//! of minutes (README "Host noise"). The drift is not clock speed: an
//! arithmetic loop kept its time while the simulator slowed. A hash-map and allocation loop
//! slows with it, so each timed unit is bracketed by runs of that loop,
//! and its host time is scaled by `NOMINAL_S` over the loop's time. The
//! loop calls no code of the repository, so no change to the repository
//! can move it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// Keys inserted per reference run.
const KEYS: u64 = 300_000;
/// The reference time the scaled seconds are expressed at: its time on
/// a 2.1 GHz Xeon in a fast phase, so scaled seconds read close to host
/// seconds there.
const NOMINAL_S: f64 = 0.014;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Count pseudo-random keys in a fresh map, allocating a small vector
/// every 64 keys.
fn reference(keys: u64) -> usize {
    let mut counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut vecs: Vec<Vec<u64>> = Vec::new();
    for i in 0..keys {
        let k = mix(i) % (keys / 2);
        *counts.entry(k).or_insert(0) += 1;
        if i % 64 == 0 {
            vecs.push((0..k % 32).collect());
        }
    }
    counts.len() + vecs.len()
}

/// The host's speed just now: one timed run of the reference.
pub struct Speed {
    reference_s: f64,
}

impl Speed {
    pub fn measure() -> Self {
        let t0 = Instant::now();
        black_box(reference(black_box(KEYS)));
        Speed {
            reference_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// `host_s` seconds measured at this speed, expressed at the speed
    /// where the reference takes `NOMINAL_S`.
    pub fn scale(&self, host_s: f64) -> f64 {
        host_s * NOMINAL_S / self.reference_s
    }
}

/// A unit's time: plain host seconds, and scaled seconds.
pub struct Timed {
    pub host_s: f64,
    pub scaled_s: f64,
}

/// Time `f` at the host speed measured just before and just after it
/// (the geometric mean of the two reference times): its result and its
/// time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = Speed::measure();
    let t0 = Instant::now();
    let out = f();
    let host_s = t0.elapsed().as_secs_f64();
    let after = Speed::measure();
    let speed = Speed {
        reference_s: (before.reference_s * after.reference_s).sqrt(),
    };
    let scaled_s = speed.scale(host_s);
    (out, Timed { host_s, scaled_s })
}
