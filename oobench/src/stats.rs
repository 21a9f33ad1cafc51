//! Small numeric helpers: a CPU-time stopwatch, percentiles, medians,
//! geometric means, a stable fingerprint hash, and the process's peak
//! resident set.

/// A stopwatch over the CPU time of this process (all threads together).
///
/// Every host time the benchmark reports is CPU time. Wall time also counts
/// the time the CPU runs something else: other processes, and, in a guest
/// whose kernel accounts steal time, other guests of the host. On a shared
/// host that time comes in bursts that can last a whole run and is most of
/// the run-to-run spread; CPU time leaves it out. For the single-threaded
/// ops the benchmark runs, CPU time equals wall time on a quiet host.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    /// Starts the stopwatch.
    pub fn start() -> CpuTimer {
        CpuTimer(cpu_now())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn secs(&self) -> f64 {
        cpu_now() - self.0
    }
}

/// CPU seconds this process has run so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (64-bit `time_t` and
    // `long` on 64-bit Linux), and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall seconds since the first call, where no process CPU clock is wired
/// up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_now() -> f64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_secs_f64()
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample set;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Geometric mean of positive values; 0 for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// 64-bit FNV-1a: a fingerprint that is stable across builds and
/// platforms, so a digest printed by one build compares with another's.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the hash.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one float, bit for bit, into the hash.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a value's `Debug` form. `Debug` prints floats in their
/// shortest round-trip form, so two values fingerprint alike exactly when
/// every field is bit-identical.
pub fn fingerprint_debug(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::default();
    h.bytes(format!("{value:?}").as_bytes());
    h.finish()
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
