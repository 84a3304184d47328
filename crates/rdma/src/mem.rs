//! Simulated virtual memory.
//!
//! Every endpoint (host process or DPU proxy) owns an [`AddressSpace`]: a
//! bump allocator handing out virtual address ranges backed by real byte
//! buffers. RDMA operations move actual bytes between address spaces, so
//! data-integrity tests can verify transfers end-to-end, and registration
//! checks enforce the same bounds rules as `ibv_reg_mr`.

use std::collections::BTreeMap;

/// A virtual address within one endpoint's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Address `off` bytes past this one.
    pub fn offset(self, off: u64) -> VAddr {
        VAddr(self.0 + off)
    }
}

/// Base of the first allocation. Nonzero so a default/null `VAddr` is never
/// a valid buffer address.
const HEAP_BASE: u64 = 0x1000;

/// Page size used for registration-cost accounting (4 KiB, like the real
/// IOMMU path).
pub const PAGE_SIZE: u64 = 4096;

/// Backing of one region: real byte storage, or a bounds-checked
/// placeholder for timing-only runs (no bytes materialized).
#[derive(Debug)]
enum Region {
    Real(Vec<u8>),
    Virtual(u64),
}

impl Region {
    fn len(&self) -> u64 {
        match self {
            Region::Real(v) => v.len() as u64,
            Region::Virtual(n) => *n,
        }
    }
}

/// One endpoint's memory: allocated regions keyed by base address.
#[derive(Default, Debug)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Region>,
    next: u64,
}

/// Errors from address-space accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is not inside any allocated region.
    Unmapped {
        /// The offending address.
        addr: VAddr,
    },
    /// The access starts inside a region but runs past its end.
    OutOfBounds {
        /// Start of the access.
        addr: VAddr,
        /// Length of the access.
        len: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {:#x}", addr.0),
            MemError::OutOfBounds { addr, len } => {
                write!(f, "access [{:#x}, +{len}) crosses region end", addr.0)
            }
        }
    }
}

impl std::error::Error for MemError {}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            next: HEAP_BASE,
        }
    }

    /// Allocate `len` bytes (zero-filled). Zero-length allocations are
    /// allowed and return a unique, non-dereferenceable address.
    pub fn alloc(&mut self, len: u64) -> VAddr {
        self.alloc_region(Region::Real(vec![0u8; len as usize]), len)
    }

    /// Allocate a *virtual* region: bounds-checked like a real one, but no
    /// bytes are materialized. Reads return zeros; writes and pattern
    /// operations are validated no-ops. Used by timing-only benchmark runs
    /// so multi-gigabyte application buffers cost nothing.
    pub fn alloc_virtual(&mut self, len: u64) -> VAddr {
        self.alloc_region(Region::Virtual(len), len)
    }

    fn alloc_region(&mut self, region: Region, len: u64) -> VAddr {
        let base = self.next;
        // Keep an unmapped guard gap between regions so off-by-one accesses
        // fault instead of silently landing in a neighbour.
        self.next = base + len.max(1) + PAGE_SIZE;
        self.regions.insert(base, region);
        VAddr(base)
    }

    /// The one region lookup every accessor shares: the bytes of
    /// `[addr, addr+len)`, or `None` when the range is valid but its region
    /// is virtual. An empty range is valid anywhere, as it always was.
    pub(crate) fn span(&self, addr: VAddr, len: u64) -> Result<Option<&[u8]>, MemError> {
        if len == 0 {
            return Ok(Some(&[]));
        }
        let (base, region) = self
            .regions
            .range(..=addr.0)
            .next_back()
            .ok_or(MemError::Unmapped { addr })?;
        let at = within(*base, region.len(), addr, len)?;
        Ok(match region {
            Region::Real(buf) => Some(&buf[at]),
            Region::Virtual(_) => None,
        })
    }

    /// [`span`](Self::span), writable.
    pub(crate) fn span_mut(
        &mut self,
        addr: VAddr,
        len: u64,
    ) -> Result<Option<&mut [u8]>, MemError> {
        if len == 0 {
            return Ok(Some(&mut []));
        }
        let (base, region) = self
            .regions
            .range_mut(..=addr.0)
            .next_back()
            .ok_or(MemError::Unmapped { addr })?;
        let at = within(*base, region.len(), addr, len)?;
        Ok(match region {
            Region::Real(buf) => Some(&mut buf[at]),
            Region::Virtual(_) => None,
        })
    }

    /// Check that `[addr, addr+len)` lies within a single region.
    pub fn check_range(&self, addr: VAddr, len: u64) -> Result<(), MemError> {
        self.span(addr, len).map(|_| ())
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read(&self, addr: VAddr, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(match self.span(addr, len)? {
            Some(bytes) => bytes.to_vec(),
            None => vec![0u8; len as usize],
        })
    }

    /// Write `data` starting at `addr`.
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
        if let Some(bytes) = self.span_mut(addr, data.len() as u64)? {
            bytes.copy_from_slice(data);
        }
        Ok(())
    }

    /// Read a little-endian u64 (for counters).
    pub fn read_u64(&self, addr: VAddr) -> Result<u64, MemError> {
        let mut word = [0u8; 8];
        if let Some(bytes) = self.span(addr, 8)? {
            word.copy_from_slice(bytes);
        }
        Ok(u64::from_le_bytes(word))
    }

    /// Write a little-endian u64 (for counters).
    pub fn write_u64(&mut self, addr: VAddr, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Fill `[addr, addr+len)` with a deterministic pattern derived from
    /// `seed` (used by data-integrity tests).
    pub fn fill_pattern(&mut self, addr: VAddr, len: u64, seed: u64) -> Result<(), MemError> {
        if let Some(bytes) = self.span_mut(addr, len)? {
            pattern_fill(pattern_start(seed), bytes);
        }
        Ok(())
    }

    /// Check `[addr, addr+len)` matches the pattern for `seed`. Virtual
    /// regions trivially verify (timing-only runs never check contents).
    pub fn verify_pattern(&self, addr: VAddr, len: u64, seed: u64) -> Result<bool, MemError> {
        let Some(bytes) = self.span(addr, len)? else {
            return Ok(true);
        };
        let mut state = pattern_start(seed);
        let mut expect = [0u8; BLOCK];
        for chunk in bytes.chunks(BLOCK) {
            let expect = &mut expect[..chunk.len()];
            state = pattern_fill(state, expect);
            if expect != chunk {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// CRC32 (IEEE) of `[addr, addr+len)`. Virtual regions hash their
    /// zero-fill, so timing-only runs stay consistent end to end.
    pub fn crc32(&self, addr: VAddr, len: u64) -> Result<u32, MemError> {
        let Some(bytes) = self.span(addr, len)? else {
            // Nothing is materialized for a virtual region, however large:
            // its zeros are hashed out of one fixed block.
            static ZEROS: [u8; BLOCK] = [0; BLOCK];
            let mut crc = !0;
            let mut left = len;
            while left > 0 {
                let n = left.min(BLOCK as u64);
                crc = crc32_update(crc, &ZEROS[..n as usize]);
                left -= n;
            }
            return Ok(!crc);
        };
        Ok(crc32(bytes))
    }

    /// Number of pages spanned by `[addr, addr+len)` (registration cost).
    pub fn pages_spanned(addr: VAddr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr.0 / PAGE_SIZE;
        let last = (addr.0 + len - 1) / PAGE_SIZE;
        last - first + 1
    }
}

/// Index range of `[addr, addr+len)` inside a region of `region_len`
/// bytes based at `base <= addr`.
fn within(
    base: u64,
    region_len: u64,
    addr: VAddr,
    len: u64,
) -> Result<std::ops::Range<usize>, MemError> {
    let off = addr.0 - base;
    if off >= region_len && !(off == 0 && region_len == 0) {
        return Err(MemError::Unmapped { addr });
    }
    if len > region_len - off {
        return Err(MemError::OutOfBounds { addr, len });
    }
    Ok(off as usize..(off + len) as usize)
}

/// Slicing-by-16 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte table, `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` and then `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// Advance the raw (un-inverted) CRC state over `data`, 16 bytes per step.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let mut x = [0u8; 16];
        x.copy_from_slice(chunk);
        for (x, c) in x.iter_mut().zip(crc.to_le_bytes()) {
            *x ^= c;
        }
        crc = 0;
        for (i, &x) in x.iter().enumerate() {
            crc ^= CRC_TABLES[15 - i][x as usize];
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 (IEEE 802.3 polynomial, reflected) over `data`. Table-driven
/// (slicing-by-16, safe Rust): the integrity layer hashes every armed
/// payload twice, and those are megabyte faces as well as small ones.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// The pattern stream is one xorshift64 generator emitting a byte per
/// step. A step is linear over GF(2), so the state a fixed number of
/// steps ahead is a fixed linear map of the state ([`JUMP`]), and long
/// runs are generated as `LANES` independent copies of the generator,
/// each `LANE_STRIDE` bytes ahead of the last: the six dependent
/// operations of one step overlap across lanes. The bytes are those of
/// the serial generator for every seed and length.
const LANES: usize = 8;
const LANE_STRIDE: usize = 512;
/// Bytes one round of all lanes produces. Shorter runs, and the tail of a
/// longer one, take the serial loop.
const BLOCK: usize = LANES * LANE_STRIDE;

/// One generator step.
const fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// The byte a state emits.
const fn pattern_byte(s: u64) -> u8 {
    (s >> 24) as u8
}

/// Generator state before the first byte of `seed`'s stream.
fn pattern_start(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// `LANE_STRIDE` generator steps as one map, tabulated per nibble of the
/// state: `JUMP[j][n]` is where `n << 4j` is that many steps on, and the
/// images of a state's nibbles add up to the state's, a step being linear.
/// Built at compile time, for a stride that is a constant so that it can
/// be: working the map out per call costs more than the lanes save on a
/// 4 KiB buffer.
static JUMP: [[u64; 16]; 16] = {
    let mut t = [[0u64; 16]; 16];
    let mut j = 0;
    while j < 16 {
        let mut n = 0;
        while n < 16 {
            let mut s = (n as u64) << (4 * j);
            let mut steps = 0;
            while steps < LANE_STRIDE {
                s = xorshift(s);
                steps += 1;
            }
            t[j][n] = s;
            n += 1;
        }
        j += 1;
    }
    t
};

/// The state `LANE_STRIDE` steps after `s`.
fn jump(s: u64) -> u64 {
    (0..16).fold(0, |acc, j| acc ^ JUMP[j][(s >> (4 * j)) as usize & 15])
}

/// Continue the stream from `state` over `out`; returns the state after
/// its last byte.
fn pattern_fill(mut state: u64, out: &mut [u8]) -> u64 {
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for block in &mut blocks {
        let mut lanes = [state; LANES];
        for k in 1..LANES {
            lanes[k] = jump(lanes[k - 1]);
        }
        // Eight bytes of one lane, then of the next: the chains are short
        // and adjacent, which is what lets the CPU run them side by side.
        for at in (0..LANE_STRIDE).step_by(8) {
            for (k, lane) in lanes.iter_mut().enumerate() {
                let mut word = 0u64;
                for shift in (0..64).step_by(8) {
                    *lane = xorshift(*lane);
                    word |= (pattern_byte(*lane) as u64) << shift;
                }
                block[k * LANE_STRIDE + at..][..8].copy_from_slice(&word.to_le_bytes());
            }
        }
        state = lanes[LANES - 1];
    }
    for b in blocks.into_remainder() {
        state = xorshift(state);
        *b = pattern_byte(state);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference oracle: the bit-at-a-time CRC32 the tables replaced.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// Reference oracle: the byte-serial pattern generator the lanes
    /// replaced.
    fn pattern(seed: u64) -> impl Iterator<Item = u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        std::iter::from_fn(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Some((state >> 24) as u8)
        })
    }

    /// A real region of `len` bytes filled with `seed`'s pattern.
    fn filled(len: u64, seed: u64) -> (AddressSpace, VAddr) {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(len);
        asp.fill_pattern(a, len, seed).unwrap();
        (asp, a)
    }

    /// Flip one bit of the byte at `a + at`.
    fn flip(asp: &mut AddressSpace, a: VAddr, at: u64, bit: u8) {
        let b = asp.read(a.offset(at), 1).unwrap()[0];
        asp.write(a.offset(at), &[b ^ (1 << bit)]).unwrap();
    }

    const MIB: u64 = 1 << 20;
    const STRIDE: u64 = LANE_STRIDE as u64;
    const ROUND: u64 = BLOCK as u64;

    #[test]
    fn crc32_equals_bitwise_at_every_short_length() {
        let data: Vec<u8> = pattern(7).take(80 + 15).collect();
        for len in 0..=80 {
            for off in [0, 1, 15] {
                let d = &data[off..off + len];
                assert_eq!(crc32(d), crc32_bitwise(d), "len {len} off {off}");
            }
        }
    }

    #[test]
    fn fill_pattern_is_the_serial_stream() {
        let lens = [
            0,
            1,
            STRIDE - 1,
            STRIDE,
            STRIDE + 1,
            ROUND - 1,
            ROUND,
            ROUND + 1,
            3 * ROUND + STRIDE + 5,
            MIB + 3,
        ];
        for seed in [0, 1, u64::MAX, 0x0ff1_0ad1, 0x9E37_79B9_7F4A_7C15] {
            for len in lens {
                let (asp, a) = filled(len, seed);
                let want: Vec<u8> = pattern(seed).take(len as usize).collect();
                assert!(asp.read(a, len).unwrap() == want, "seed {seed} len {len}");
                assert!(asp.verify_pattern(a, len, seed).unwrap());
            }
        }
    }

    #[test]
    fn verify_pattern_sees_one_flipped_bit_anywhere() {
        // Two full rounds of lanes and a serial tail.
        let (len, seed) = (2 * ROUND + 100, 11);
        let (mut asp, a) = filled(len, seed);
        let mut spots = vec![2 * ROUND, len - 1];
        for lane in 0..2 * LANES as u64 {
            spots.extend([lane * STRIDE, (lane + 1) * STRIDE - 1]);
        }
        spots.extend(pattern(3).take(64).map(|b| b as u64 * 31 % len));
        for (i, at) in spots.into_iter().enumerate() {
            let bit = (i % 8) as u8;
            flip(&mut asp, a, at, bit);
            assert!(!asp.verify_pattern(a, len, seed).unwrap(), "byte {at}");
            flip(&mut asp, a, at, bit);
            assert!(asp.verify_pattern(a, len, seed).unwrap());
        }
        assert!(!asp.verify_pattern(a, len, seed + 1).unwrap());
    }

    /// Captured at the commit before the kernels changed: the stream and
    /// the checksum are formats other layers' goldens depend on.
    #[test]
    fn stream_and_checksum_golden() {
        let (asp, a) = filled(MIB, 1);
        assert_eq!(asp.crc32(a, MIB).unwrap(), 0xC073_ED1B);
        assert_eq!(
            asp.read(a, 32).unwrap(),
            [
                11, 2, 229, 54, 161, 78, 214, 26, 176, 73, 184, 86, 173, 214, 63, 252, 125, 85,
                107, 200, 109, 154, 156, 130, 237, 193, 205, 105, 105, 152, 108, 52
            ]
        );
    }

    /// `VmHWM` of this process in KiB.
    fn peak_rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmHWM:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    #[test]
    fn virtual_crc_is_the_crc_of_its_zeros() {
        let mut asp = AddressSpace::new();
        let len = 3 * ROUND + 17;
        let v = asp.alloc_virtual(len);
        assert_eq!(
            asp.crc32(v.offset(5), len - 5).unwrap(),
            crc32_bitwise(&vec![0; len as usize - 5])
        );
        assert_eq!(asp.read_u64(v).unwrap(), 0);
    }

    /// A timing-only run hashes application-sized virtual buffers twice a
    /// message; it must never hold their zeros. Run by `ci.sh` in release
    /// mode (two gigabytes of hashing take most of a minute unoptimized).
    #[test]
    #[ignore = "hashes 2 GiB; release mode only"]
    fn virtual_crc_of_a_gigabyte_allocates_nothing() {
        let gib = 1 << 30;
        let mut asp = AddressSpace::new();
        let v = asp.alloc_virtual(gib);
        let before = peak_rss_kib();
        let got = asp.crc32(v, gib).unwrap();
        let grown = peak_rss_kib() - before;
        let zeros = vec![0u8; MIB as usize];
        let want = !(0..gib / MIB).fold(!0, |crc, _| crc32_update(crc, &zeros));
        assert_eq!(got, want);
        assert!(grown < 64 * 1024, "peak RSS grew {grown} KiB");
    }

    /// A refactor must not quietly fall back to the byte loops. Relative,
    /// in one process, so it holds on a noisy box; run by `ci.sh` in
    /// release mode.
    #[test]
    #[ignore = "timing; release mode only"]
    #[allow(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "test code: times the kernels against their reference loops"
    )]
    fn kernels_are_table_speed() {
        use std::hint::black_box;
        use std::time::{Duration, Instant};
        fn best_of(mut f: impl FnMut()) -> Duration {
            (0..7)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .unwrap()
        }
        let (mut asp, a) = filled(MIB, 5);
        let data = asp.read(a, MIB).unwrap();

        let table = best_of(|| _ = black_box(crc32(black_box(&data))));
        let bitwise = best_of(|| _ = black_box(crc32_bitwise(black_box(&data))));
        assert!(
            bitwise >= 4 * table,
            "crc32: table {table:?} vs bitwise {bitwise:?}"
        );

        let lanes = best_of(|| {
            asp.fill_pattern(a, MIB, black_box(5)).unwrap();
            assert!(asp.verify_pattern(a, MIB, black_box(5)).unwrap());
        });
        let serial = best_of(|| {
            let fill: Vec<u8> = pattern(black_box(5)).take(MIB as usize).collect();
            assert!(data
                .iter()
                .copied()
                .eq(pattern(black_box(5)).take(fill.len())));
            black_box(fill);
        });
        assert!(
            2 * serial >= 3 * lanes,
            "pattern: lanes {lanes:?} vs serial {serial:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn crc32_equals_bitwise_at_any_length_and_alignment(
            len in 0usize..(1 << 20) + 1,
            off in 0usize..16,
            seed in any::<u64>(),
        ) {
            let data: Vec<u8> = pattern(seed).take(off + len).collect();
            prop_assert_eq!(crc32(&data[off..]), crc32_bitwise(&data[off..]));
        }

        #[test]
        fn fill_pattern_equals_serial_for_any_seed(
            len in 0u64..40_000,
            seed in any::<u64>(),
        ) {
            let (asp, a) = filled(len, seed);
            let want: Vec<u8> = pattern(seed).take(len as usize).collect();
            prop_assert!(asp.read(a, len).unwrap() == want);
        }
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(64);
        asp.write(a, &[1, 2, 3, 4]).unwrap();
        assert_eq!(asp.read(a, 4).unwrap(), vec![1, 2, 3, 4]);
        // Untouched tail is zero-filled.
        assert_eq!(asp.read(a.offset(4), 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(16);
        let b = asp.alloc(16);
        assert_ne!(a, b);
        asp.write(a, &[0xAA; 16]).unwrap();
        assert_eq!(asp.read(b, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn unmapped_access_faults() {
        let asp = AddressSpace::new();
        assert_eq!(
            asp.read(VAddr(0x10), 1),
            Err(MemError::Unmapped { addr: VAddr(0x10) })
        );
    }

    #[test]
    fn cross_region_access_faults() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8);
        let err = asp.read(a, 9).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        // The guard gap after the region is unmapped.
        assert!(matches!(
            asp.read(a.offset(8), 1).unwrap_err(),
            MemError::Unmapped { .. }
        ));
    }

    #[test]
    fn interior_offset_access_works() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(32);
        asp.write(a.offset(8), &[9, 9]).unwrap();
        assert_eq!(asp.read(a.offset(8), 2).unwrap(), vec![9, 9]);
    }

    #[test]
    fn u64_counter_roundtrip() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(8);
        asp.write_u64(a, 0xDEAD_BEEF_1234).unwrap();
        assert_eq!(asp.read_u64(a).unwrap(), 0xDEAD_BEEF_1234);
    }

    #[test]
    fn pattern_fill_and_verify() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(1000);
        asp.fill_pattern(a, 1000, 42).unwrap();
        assert!(asp.verify_pattern(a, 1000, 42).unwrap());
        assert!(!asp.verify_pattern(a, 1000, 43).unwrap());
    }

    #[test]
    fn zero_length_operations() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc(0);
        assert_eq!(asp.read(a, 0).unwrap(), Vec::<u8>::new());
        asp.write(a, &[]).unwrap();
        assert!(asp.check_range(a, 0).is_ok());
    }

    #[test]
    fn crc32_known_vector_and_sensitivity() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut asp = AddressSpace::new();
        let a = asp.alloc(256);
        asp.fill_pattern(a, 256, 3).unwrap();
        let base = asp.crc32(a, 256).unwrap();
        // A single flipped byte must change the checksum.
        let mut bytes = asp.read(a, 256).unwrap();
        bytes[100] ^= 0x40;
        asp.write(a, &bytes).unwrap();
        assert_ne!(asp.crc32(a, 256).unwrap(), base);
    }

    #[test]
    fn pages_spanned_accounting() {
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 1), 1);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 4096), 1);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 4097), 2);
        assert_eq!(AddressSpace::pages_spanned(VAddr(4095), 2), 2);
        assert_eq!(AddressSpace::pages_spanned(VAddr(0), 0), 0);
        assert_eq!(AddressSpace::pages_spanned(VAddr(8192), 8192), 2);
    }
}
