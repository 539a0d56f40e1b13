//! Small shared pieces: the seeded generator, order statistics, process
//! memory, the benchmark's working directory and server start-up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// SplitMix64: a tiny deterministic generator, so the same `--seed` gives
/// the same inputs on every machine (no dependency on `rand`).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of `samples` (sorted in place), `q` in `[0, 1]`.
/// Returns 0 for no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * q).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's working directory, inside its own package directory:
/// stores, sockets and span files live here and nowhere else.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A fresh, empty directory under [`work_dir`], unique to this process.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = work_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's working directory");
    dir
}

/// A `td serve` running on a thread of this process, over a store in its
/// own directory.
pub struct LiveServer {
    pub dir: PathBuf,
    pub socket: PathBuf,
    handle: std::thread::JoinHandle<std::io::Result<td_serve::ServeSummary>>,
}

impl LiveServer {
    /// Parse `src`, open-or-init its store (genesis commit of the `init`
    /// facts), bind the socket and wait until the server answers `ping`.
    /// This is the serve workloads' set-up, timed as `setup_s`.
    pub fn start(src: &str, dir: PathBuf) -> Result<LiveServer, String> {
        let parsed = td_parser::parse_program(src).map_err(|e| format!("parse: {e}"))?;
        let socket = dir.join("td.sock");
        let server = td_serve::Server::open(
            parsed,
            td_engine::EngineConfig::default(),
            &dir.join("db"),
            td_store::TxOptions::default(),
        )
        .map_err(|e| format!("store: {e}"))?;
        let sock = socket.clone();
        let handle = std::thread::spawn(move || server.serve(&sock));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = td_serve::Client::connect(&socket) {
                if c.ping().unwrap_or(false) {
                    break;
                }
            }
            if handle.is_finished() || Instant::now() > deadline {
                return Err("server did not come up".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(LiveServer {
            dir,
            socket,
            handle,
        })
    }

    pub fn connect(&self) -> Result<td_serve::Client, String> {
        td_serve::Client::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Send `stop`, wait for the drain, and return the shutdown summary
    /// (the store inside it is closed and durable).
    pub fn stop(self) -> Result<td_serve::ServeSummary, String> {
        self.connect()?.stop().map_err(|e| format!("stop: {e}"))?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// Time `k` set-ups, tearing down all but the last; returns the median
/// set-up time in seconds and the last set-up's value.
pub fn median_setup<T>(
    k: usize,
    setup: impl FnMut() -> Result<T, String>,
    teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let (mut times, last) = timed_setups(k, setup, teardown)?;
    Ok((median(&mut times), last))
}

/// Time `k` set-ups, tearing down all but the last; returns every set-up
/// time in seconds and the last set-up's value.
pub fn timed_setups<T>(
    k: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for i in 0..k {
        let t0 = Instant::now();
        let v = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == k {
            last = Some(v);
        } else {
            teardown(v)?;
        }
    }
    Ok((times, last.expect("k >= 1")))
}

/// More set-ups, timed while the measured phase runs: one whenever
/// `every` has passed since the last, between rounds. The host's speed
/// wanders over seconds to minutes; set-ups timed only before the phase
/// sample one moment of it, while the phase's operations sample all of
/// it. The set-up's value is dropped at once.
pub struct SetupSampler {
    every: Duration,
    next: Instant,
    times: Vec<f64>,
}

impl SetupSampler {
    /// Start sampling, keeping the set-up times measured so far.
    pub fn new(every: Duration, times: Vec<f64>) -> SetupSampler {
        SetupSampler {
            every,
            next: Instant::now() + every,
            times,
        }
    }

    /// Time one set-up if one is due.
    pub fn poll<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if Instant::now() < self.next {
            return Ok(());
        }
        let t0 = Instant::now();
        drop(setup()?);
        self.times.push(t0.elapsed().as_secs_f64());
        self.next = Instant::now() + self.every;
        Ok(())
    }

    /// Median of every set-up time, in seconds.
    pub fn median(mut self) -> f64 {
        median(&mut self.times)
    }
}

/// Bytes in the store's write-ahead log.
pub fn wal_bytes(store_dir: &Path) -> u64 {
    std::fs::metadata(store_dir.join("wal.tdl")).map_or(0, |m| m.len())
}
