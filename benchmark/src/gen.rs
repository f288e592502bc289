//! Seeded input generation. Everything a workload feeds the program — keys,
//! offsets, payload bytes, op order — comes from `--seed` through
//! `pgas_des::rng`; the program itself only ever sees the generated inputs.

use pgas_des::rng::{splitmix64, Rng};

/// `len` pseudo-random bytes for stream `stream` of `seed`.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(splitmix64(seed) ^ stream);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A random permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<u32> {
    let mut rng = Rng::new(splitmix64(seed) ^ stream);
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(i + 1));
    }
    p
}

/// `count` distinct DHT keys issued by rank `me` of `rank_n`, none owned by
/// `me` itself. At 2 ranks half of all random keys would be self-RPCs that
/// bypass the conduit; at the paper's scale practically none are.
pub fn remote_keys(seed: u64, me: usize, rank_n: usize, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(splitmix64(seed) ^ (0x6b65_7900 + me as u64));
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let k = rng.next_u64();
        if pgas_dht::get_target(k, rank_n) != me && seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// The value stored under a key: `len` bytes of a seed-derived pool starting
/// at a key-derived offset, so any find can be checked against `f(seed, key)`
/// without storing the values twice.
pub struct Values {
    seed: u64,
    pool: Vec<u8>,
}

impl Values {
    /// Pool for values of up to `max_len` bytes.
    pub fn new(seed: u64, max_len: usize) -> Values {
        Values {
            seed,
            pool: bytes(seed, 0x76_616c, (64 << 10) + max_len),
        }
    }

    /// `f(seed, key)`: the `len` bytes that belong under `key`.
    pub fn of(&self, key: u64, len: usize) -> &[u8] {
        let span = self.pool.len() - len;
        let off = (splitmix64(self.seed ^ key) % span as u64) as usize;
        &self.pool[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(bytes(7, 1, 1000), bytes(7, 1, 1000));
        assert_ne!(bytes(7, 1, 1000), bytes(8, 1, 1000));
        assert_ne!(bytes(7, 1, 1000), bytes(7, 2, 1000));
        assert_eq!(permutation(7, 0, 1024), permutation(7, 0, 1024));
        assert_ne!(permutation(7, 0, 1024), permutation(8, 0, 1024));
        assert_eq!(remote_keys(7, 0, 2, 500), remote_keys(7, 0, 2, 500));
        assert_ne!(remote_keys(7, 0, 2, 500), remote_keys(8, 0, 2, 500));
        let (a, b) = (Values::new(7, 1024), Values::new(8, 1024));
        assert_eq!(a.of(42, 1024), Values::new(7, 1024).of(42, 1024));
        assert_ne!(a.of(42, 1024), b.of(42, 1024));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(3, 9, 1000);
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }

    #[test]
    fn remote_keys_are_distinct_and_never_self_owned() {
        for me in 0..2 {
            let keys = remote_keys(11, me, 2, 2048);
            assert_eq!(keys.len(), 2048);
            assert!(keys.iter().all(|&k| pgas_dht::get_target(k, 2) != me));
            let distinct: std::collections::HashSet<_> = keys.iter().collect();
            assert_eq!(distinct.len(), keys.len());
        }
    }
}
