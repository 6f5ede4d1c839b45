//! Seeded input generation, order statistics and process measurements.

/// SplitMix64: every input the benchmark generates comes from this, so
/// the same `--seed` gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A sorted sample of one quantity.
pub struct Dist(Vec<f64>);

impl Dist {
    pub fn new(mut xs: Vec<f64>) -> Dist {
        xs.sort_by(f64::total_cmp);
        Dist(xs)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; NaN on an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    /// The quantile `q`, or the highest one that still leaves at least
    /// ten samples beyond it when the sample is too small for `q`.
    /// Returns the value and the quantile actually used.
    pub fn tail(&self, q: f64) -> (f64, f64) {
        let n = self.0.len() as f64;
        let supported = (1.0 - 10.0 / n).max(0.5);
        let used = q.min(supported);
        (self.quantile(used), used)
    }
}

pub fn median(xs: Vec<f64>) -> f64 {
    Dist::new(xs).quantile(0.5)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process (daemon, clients and inputs
/// together), in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of the 64-bit Linux `struct
    // rusage` (two timevals and fourteen longs), `usage` is a valid
    // exclusive pointer for the call, and RUSAGE_SELF (0) is a valid
    // `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Jiffies the hypervisor has stolen from this machine's CPUs since boot
/// (the eighth value of the `cpu` line of `/proc/stat`), or 0 where that
/// file is not available.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Share of the machine's CPU time stolen over `jiffies` of steal in
/// `seconds` of wall time (USER_HZ = 100).
pub fn steal_share(jiffies: u64, seconds: f64) -> f64 {
    jiffies as f64 / (100.0 * seconds * host_cores() as f64)
}
