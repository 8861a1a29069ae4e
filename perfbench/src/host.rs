//! Host-side measurement helpers: CPU time and peak memory from
//! `getrusage(2)`, set-up timing, the reference kernel that host times are
//! scaled by, the seeded generator, order statistics and the output digest.

use std::collections::BTreeMap;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage` (144 bytes), and `who` is one of the two
    // selectors getrusage accepts, so the call writes only inside it.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

fn cpu_of(u: &Rusage) -> f64 {
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// User + system CPU seconds of this process plus every child it has
/// waited for (and, through them, their waited-for descendants).
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// CPU time of the calling thread.
fn thread_cpu_time() -> Duration {
    let mut tp = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `tp` is a live, writable value laid out as the kernel's
    // 64-bit `struct timespec`, and the clock id is a valid one, so the
    // call writes only inside it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut tp) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(tp.sec as u64, tp.nsec as u32)
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib_of(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line"))
}

/// Set-ups discarded at the start of a run (process and page-cache
/// warm-up).
const SETUP_WARMUP: usize = 20;
/// `setup_s` is the median over `SETUP_BATCHES` batches of the best set-up
/// in each. The batches are interleaved: `SETUP_SLICES` times, after a
/// pause of `SETUP_GAP`, every batch sets up once, each pass starting with
/// the next batch so that none always gets the first, coldest set-up.
const SETUP_BATCHES: usize = 15;
const SETUP_SLICES: usize = 100;
const SETUP_GAP: Duration = Duration::from_millis(20);

/// A workload's set-up time in reference-host seconds from `once`, which
/// sets up once and returns how long that took, or `None` if it failed.
///
/// A set-up takes microseconds, and on the reference host the speed of
/// work that small switches between two levels 1.25–1.5× apart, with slow
/// stretches of 0.1 to 0.8 s. Interleaving spreads every batch over the
/// same two seconds, so each batch's best falls in a fast stretch; the
/// median over batches keeps one lucky set-up from setting the figure.
/// Both levels drift with the host's speed over tens of seconds, so the
/// result is scaled by the reference kernel, timed once per pass.
pub fn setup_seconds(mut once: impl FnMut() -> Option<f64>) -> Option<f64> {
    for _ in 0..SETUP_WARMUP {
        once()?;
    }
    let mut bests = [f64::INFINITY; SETUP_BATCHES];
    let mut kernel = Vec::with_capacity(SETUP_SLICES);
    for pass in 0..SETUP_SLICES {
        std::thread::sleep(SETUP_GAP);
        kernel.push(reference_kernel().as_secs_f64());
        for b in 0..SETUP_BATCHES {
            let best = &mut bests[(pass + b) % SETUP_BATCHES];
            *best = best.min(once()?);
        }
    }
    eprintln!(
        "perfbench: unscaled setup_s {:.3e} (reference kernel {:.1} us)",
        median(&bests),
        median(&kernel) * 1e6
    );
    Some(median(&bests) * REFERENCE_KERNEL_S / median(&kernel))
}

/// Time of one `reference_kernel` call on the reference host at its usual
/// speed, in seconds. Host-time metrics are scaled to a host on which the
/// kernel takes this long.
pub const REFERENCE_KERNEL_S: f64 = 4.0e-4;

/// Steps the reference kernel interprets per call.
const REFERENCE_STEPS: u64 = 180_000;

/// Runs a fixed piece of work that shares nothing with the program and
/// returns the thread CPU time it took: a small register-machine
/// interpreter over a 32 KiB memory, the same kind of work as the
/// simulator's (dispatch on an operation, data-dependent branches, table
/// reads and writes). Thread CPU time leaves out any wait for a core.
///
/// The reference host's core speed drifts by up to 30% over tens of
/// seconds (other tenants), in the kernel and the program alike. Every
/// workload times this kernel before every request and divides its host
/// times by the kernel's speed relative to `REFERENCE_KERNEL_S`, which
/// takes most of that drift out; a change to the program leaves the
/// kernel's time as it was.
pub fn reference_kernel() -> Duration {
    // (operation, destination, source a, source b)
    const PROGRAM: [(u8, u8, u8, u8); 8] = [
        (0, 1, 1, 2),
        (1, 2, 2, 1),
        (2, 3, 1, 2),
        (3, 0, 3, 0),
        (0, 4, 4, 3),
        (4, 5, 4, 1),
        (1, 6, 5, 4),
        (5, 7, 6, 0),
    ];
    let t = thread_cpu_time();
    let program = std::hint::black_box(PROGRAM);
    let steps = std::hint::black_box(REFERENCE_STEPS);
    let mut regs = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut mem = [0u64; 4096];
    let (mut pc, mut step) = (0usize, 0);
    while step < steps {
        let (op, d, a, b) = program[pc];
        let (d, a, b) = (usize::from(d), usize::from(a), usize::from(b));
        step += 1;
        pc = (pc + 1) & 7;
        match op {
            0 => regs[d] = regs[a].wrapping_add(regs[b]),
            1 => regs[d] = regs[a] ^ (regs[b] << 7) ^ (regs[b] >> 3),
            2 => {
                let i = regs[a] as usize & 4095;
                mem[i] = mem[i].wrapping_add(regs[b]);
            }
            3 => regs[d] = mem[regs[a] as usize & 4095],
            4 if regs[a] & 1 == 0 => pc = (pc + 1) & 7,
            4 => {}
            _ => regs[d] = regs[a].wrapping_mul(regs[b] | 1),
        }
    }
    std::hint::black_box(regs);
    thread_cpu_time() - t
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `n` indices into `0..k`, each value used `n / k` or `n / k + 1`
    /// times, in seeded order: a balanced assignment.
    pub fn balanced(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).map(|i| i % k).collect();
        self.shuffle(&mut v);
        v
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let j = ((i + 1) * m / 4).clamp(1, d.len() - 1);
        let delta = ((i + 1) * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * d.len() as f64).ceil() as usize;
    d[rank.clamp(1, d.len()) - 1]
}

/// A run's job entry lines (`journal::encode_entry` output) by job key.
pub type Entries = BTreeMap<u64, String>;

/// The workload's output digest: FNV-1a-64 (the journal's hash) over the
/// entry lines sorted by job key, each followed by a newline.
pub fn digest(entries: &Entries) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in entries.values() {
        for &b in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
