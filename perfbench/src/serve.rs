//! The `serve-store` workload: one sweep server (`--max-procs 2`, fresh
//! artifact store) driven by two closed-loop clients over local TCP.
//!
//! A round is one seeded list of 120 small requests: for each of five
//! experiments, each scale with two seeded training inputs (six
//! combinations), each asked four times, in seeded order, from a seeded
//! tenant. The first
//! request for a combination misses the store (profile, compile,
//! simulate, then store and journal writes); repeats hit it. Each round
//! starts its own server on an empty store, so every round pays the same
//! cold misses.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wishbranch_core::journal::{decode_entry, encode_entry, fnv1a64};
use wishbranch_core::minijson::JsonValue;
use wishbranch_core::{
    client_stream, Experiment, ResponseLine, RunOutcome, ServeConfig, Server, SweepRequest,
    BATCH_ENV, FAULT_PLAN_ENV, WORKERS_ENV,
};
use wishbranch_workloads::{suite, InputSet};

use crate::host::{self, median, percentile, Rng};
use crate::layers::{self, set, Metrics};
use crate::trace::Recorder;
use crate::RunReport;

const EXPERIMENTS: [Experiment; 5] = [
    Experiment::Fig10,
    Experiment::Fig11,
    Experiment::Fig12,
    Experiment::Fig13,
    Experiment::Tab4,
];
const SCALES: [i32; 3] = [40, 60, 80];
const TENANTS: [&str; 3] = ["alice", "bob", "carol"];
/// Each experiment asks every scale with two of the three training
/// inputs, so the cold work per round is the same for every seed.
const TRAINS_PER_SCALE: usize = 2;
const REPEATS: usize = 4;
const CLIENTS: usize = 2;
const MAX_PROCS: usize = 2;

fn requests(seed: u64) -> Vec<SweepRequest> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    for exp in EXPERIMENTS {
        let mut combos: Vec<(i32, InputSet)> = Vec::new();
        for scale in SCALES {
            let mut trains = InputSet::ALL;
            rng.shuffle(&mut trains);
            combos.extend(trains[..TRAINS_PER_SCALE].iter().map(|&t| (scale, t)));
        }
        for &(scale, train) in &combos {
            for _ in 0..REPEATS {
                let mut req = SweepRequest::new(vec![exp]);
                req.scale = scale;
                req.quick = true;
                req.train = Some(train);
                req.workers = Some(1);
                req.batch = Some(1);
                out.push(req);
            }
        }
    }
    rng.shuffle(&mut out);
    for req in &mut out {
        req.tenant = TENANTS[rng.below(TENANTS.len())].to_string();
    }
    out
}

/// `perfbench --serve-child STATE_DIR STORE_DIR`: hosts the server,
/// prints `listening on ADDR`, and drains and exits when stdin closes.
/// Worker processes are this same executable run with `--worker`.
pub fn child_main(args: &[String]) -> i32 {
    let [state, store] = args else {
        eprintln!("usage: perfbench --serve-child STATE_DIR STORE_DIR");
        return 2;
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut cfg = ServeConfig::new(exe, state);
    cfg.store_dir = Some(PathBuf::from(store));
    cfg.max_procs = MAX_PROCS;
    let server = match Server::bind("127.0.0.1:0", cfg) {
        Ok(server) => Arc::new(server),
        Err(e) => {
            eprintln!("perfbench: serve: {e}");
            return 1;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("perfbench: serve: {e}");
            return 1;
        }
    }
    let drain = Arc::clone(&server);
    let watcher = std::thread::spawn(move || {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        drain.shutdown()
    });
    let ran = server.run();
    let drained = watcher.join();
    match (ran, drained) {
        (Ok(()), Ok(Ok(()))) => 0,
        _ => 1,
    }
}

struct ServerProc {
    child: Child,
    addr: String,
}

/// Starts a server on fresh directories under `dir`.
fn start_server(dir: &Path) -> io::Result<ServerProc> {
    let mut child = Command::new(std::env::current_exe()?)
        .arg("--serve-child")
        .arg(dir.join("state"))
        .arg(dir.join("store"))
        .env_remove(WORKERS_ENV)
        .env_remove(FAULT_PLAN_ENV)
        .env_remove(BATCH_ENV)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut line = String::new();
    if let Some(out) = child.stdout.take() {
        BufReader::new(out).read_line(&mut line)?;
    }
    match line.trim().strip_prefix("listening on ") {
        Some(addr) => Ok(ServerProc {
            addr: addr.to_string(),
            child,
        }),
        None => {
            let _ = child.kill();
            let _ = child.wait();
            Err(io::Error::other(format!("server did not start: {line:?}")))
        }
    }
}

/// Closes the server's stdin (it drains and exits) and waits for it, so
/// its CPU time and that of its workers land in this process's
/// children's usage. Returns the server's own peak RSS in MiB (workers
/// excluded: their peaks depend on which request each one served).
fn stop_server(mut server: ServerProc) -> io::Result<f64> {
    let peak = host::peak_rss_mib_of(server.child.id());
    drop(server.child.stdin.take());
    let status = server.child.wait()?;
    if status.success() {
        peak
    } else {
        Err(io::Error::other(format!("server exited with {status}")))
    }
}

/// One server set-up, timed: the served child's configuration and
/// `Server::bind` until the server has an address.
fn set_up_once(exe: &Path, dir: &Path, addr: &str) -> io::Result<f64> {
    let t = Instant::now();
    let mut cfg = ServeConfig::new(exe.to_path_buf(), dir.join("state"));
    cfg.store_dir = Some(dir.join("store"));
    cfg.max_procs = MAX_PROCS;
    let server = Server::bind(addr, cfg)?;
    server.local_addr()?;
    Ok(t.elapsed().as_secs_f64())
}

/// `setup_s` on serve-store (see `host::setup_seconds`), or `None` if a
/// set-up failed.
///
/// Each set-up is a restart: the server finds its state and store
/// directories in place and binds a fixed free port, as
/// `wishbranch-repro serve` binds its default address. Three costs that
/// follow the host rather than the program are left out. Spawning the
/// hosting process execs the benchmark's own executable and doubles in
/// the host's slow episodes. Creating directories waits for the file
/// system's journal, which earlier rounds' deleted stores keep busy
/// (0.05 to 1.5 ms per directory). Binding port 0 searches for a free
/// port, which takes up to a millisecond while earlier connections sit in
/// TIME-WAIT.
fn set_up(base: &Path, problems: &mut Vec<String>) -> Option<f64> {
    let dir = base.join("setup");
    let prepared = std::env::current_exe().and_then(|exe| {
        std::fs::create_dir_all(dir.join("state"))?;
        std::fs::create_dir_all(dir.join("store"))?;
        let free = TcpListener::bind("127.0.0.1:0")?.local_addr()?;
        Ok((exe, free.to_string()))
    });
    let setup = match prepared {
        Ok((exe, addr)) => host::setup_seconds(|| {
            set_up_once(&exe, &dir, &addr)
                .map_err(|e| problems.push(format!("server set-up: {e}")))
                .ok()
        }),
        Err(e) => {
            problems.push(format!("server set-up: {e}"));
            None
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    setup
}

/// Everything one request saw, with client-side timestamps.
struct Exchange {
    index: usize,
    submit: Instant,
    connected: Option<Instant>,
    accepted: Option<Instant>,
    /// Arrival time and key of each `job` line.
    jobs: Vec<(Instant, u64)>,
    /// Retired µops of the streamed outcomes.
    uops: u64,
    done: Option<Instant>,
    fig12_norm: Option<f64>,
    store_hits: u64,
    store_misses: u64,
    profile_runs: u64,
    compiles: u64,
    done_jobs: u64,
    done_failed: u64,
    respawns: u64,
    rejected: bool,
    errors: Vec<String>,
}

/// The distinct job entries streamed in a round, with the hash and µops
/// of each; later copies of a key must carry the same bytes (compared by
/// hash).
struct Seen {
    known: BTreeMap<u64, (u64, u64)>,
    entries: host::Entries,
}

type Registry = Mutex<Seen>;

/// Checks one streamed entry against the round's registry and returns
/// its retired µops.
fn register(seen: &Registry, key: u64, entry: &str) -> Result<u64, String> {
    let hash = fnv1a64(entry.as_bytes());
    let lock = || seen.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(known, uops)) = lock().known.get(&key) {
        return if known == hash {
            Ok(uops)
        } else {
            Err(format!("job {key} differs between requests"))
        };
    }
    match decode_entry(entry) {
        Some((k, outcome)) if k == key => {
            let uops = outcome.sim.stats.retired_uops;
            let mut seen = lock();
            seen.known.insert(key, (hash, uops));
            seen.entries.insert(key, entry.to_string());
            Ok(uops)
        }
        _ => Err(format!("job {key} entry does not decode")),
    }
}

/// The wish-jjl (real-conf) value of a Fig. 12 report's AVG row.
fn fig12_avg(report: &str) -> Option<f64> {
    let doc = JsonValue::parse(report).ok()?;
    let data = doc.get("data")?;
    let series = data.get("series")?.as_array()?;
    let col = series
        .iter()
        .position(|s| s.as_str() == Some("wish-jjl (real-conf)"))?;
    let rows = data.get("rows")?.as_array()?;
    let avg = rows
        .iter()
        .find(|r| r.get("name").and_then(JsonValue::as_str) == Some("AVG"))?;
    avg.get("values")?.as_array()?.get(col)?.as_f64()
}

fn exchange(addr: &str, index: usize, req: &SweepRequest, seen: &Registry) -> Exchange {
    let mut x = Exchange {
        index,
        submit: Instant::now(),
        connected: None,
        accepted: None,
        jobs: Vec::new(),
        uops: 0,
        done: None,
        fig12_norm: None,
        store_hits: 0,
        store_misses: 0,
        profile_runs: 0,
        compiles: 0,
        done_jobs: 0,
        done_failed: 0,
        respawns: 0,
        rejected: false,
        errors: Vec::new(),
    };
    let stream = match client_stream(addr, req) {
        Ok(stream) => stream,
        Err(e) => {
            x.errors.push(format!("connect: {e}"));
            return x;
        }
    };
    x.connected = Some(Instant::now());
    for item in stream {
        let line = match item {
            Ok((_, line)) => line,
            Err(e) => {
                x.errors.push(format!("stream: {e}"));
                break;
            }
        };
        let now = Instant::now();
        match line {
            ResponseLine::Accepted { .. } => x.accepted = Some(now),
            ResponseLine::Rejected { kind, reason } => {
                x.rejected = true;
                x.errors.push(format!("rejected {kind}: {reason}"));
            }
            ResponseLine::Job { key, entry, .. } => {
                x.jobs.push((now, key));
                match register(seen, key, &entry) {
                    Ok(uops) => x.uops += uops,
                    Err(e) => x.errors.push(e),
                }
            }
            ResponseLine::Report { experiment, report } => {
                if experiment == Experiment::Fig12.id() {
                    x.fig12_norm = fig12_avg(&report);
                }
            }
            ResponseLine::Stats { respawns, .. } => x.respawns = respawns,
            ResponseLine::Done {
                jobs,
                failed,
                store_hits,
                store_misses,
                profile_misses,
                compile_misses,
                ..
            } => {
                x.done = Some(now);
                x.done_jobs = jobs;
                x.done_failed = failed;
                x.store_hits = store_hits;
                x.store_misses = store_misses;
                x.profile_runs = profile_misses;
                x.compiles = compile_misses;
            }
            ResponseLine::Heartbeat { .. } => {}
        }
    }
    x
}

struct Round {
    wall: f64,
    cpu_s: f64,
    /// Mean time of `host::reference_kernel`, timed by each client before
    /// each of its requests.
    kernel_s: f64,
    server_rss_mib: f64,
    exchanges: Vec<Exchange>,
    seen: Seen,
    store_dir: PathBuf,
}

impl Round {
    /// Host seconds of this round to seconds of the reference host.
    fn to_reference(&self) -> f64 {
        host::REFERENCE_KERNEL_S / self.kernel_s
    }
}

/// Runs one round on a fresh server. The kernel a client times before each
/// request runs beside the server's work for the other client, so it also
/// feels that load.
fn round(dir: &Path, reqs: &[SweepRequest]) -> io::Result<Round> {
    let server = start_server(dir)?;
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let addr = server.addr.as_str();
    let seen = Registry::new(Seen {
        known: BTreeMap::new(),
        entries: host::Entries::new(),
    });
    let seen_ref = &seen;
    let mut kernel = Duration::ZERO;
    let mut exchanges: Vec<Exchange> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut kernel = Duration::ZERO;
                    let exchanges = reqs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % CLIENTS == c)
                        .map(|(i, req)| {
                            kernel += host::reference_kernel();
                            exchange(addr, i, req, seen_ref)
                        })
                        .collect::<Vec<_>>();
                    (exchanges, kernel)
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| {
                let (exchanges, k) = h.join().expect("client thread panicked");
                kernel += k;
                exchanges
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let server_rss_mib = stop_server(server)?;
    let cpu_s = host::cpu_seconds() - cpu0;
    exchanges.sort_by_key(|x| x.index);
    Ok(Round {
        wall,
        cpu_s,
        kernel_s: kernel.as_secs_f64() / reqs.len() as f64,
        server_rss_mib,
        exchanges,
        seen: seen.into_inner().unwrap_or_else(PoisonError::into_inner),
        store_dir: dir.join("store"),
    })
}

/// A checked round: its distinct job entries by key, the µops its
/// streams delivered, the mean Fig. 12 wish-jjl column over its distinct
/// Fig. 12 requests, and how many requests failed a check.
struct Checked {
    entries: host::Entries,
    uops: u64,
    norm: f64,
    failed: u64,
}

/// Checks one round's streams and takes its entries.
fn check(r: &mut Round, reqs: &[SweepRequest], problems: &mut Vec<String>) -> Checked {
    let mut c = Checked {
        entries: host::Entries::new(),
        uops: 0,
        norm: 0.0,
        failed: 0,
    };
    let mut fig12: BTreeMap<(i32, String), f64> = BTreeMap::new();
    for x in &r.exchanges {
        let mut errs: Vec<String> = Vec::new();
        let mut bad = |what: String| errs.push(format!("request {}: {what}", x.index));
        x.errors.iter().for_each(|e| bad(e.clone()));
        if x.accepted.is_none() || x.done.is_none() {
            bad("no accepted/done line".into());
        }
        if x.done_failed > 0 || x.done_jobs != x.jobs.len() as u64 {
            bad(format!(
                "{} failed jobs, {} of {} streamed",
                x.done_failed,
                x.jobs.len(),
                x.done_jobs
            ));
        }
        c.uops += x.uops;
        let req = &reqs[x.index];
        if req.experiments == [Experiment::Fig12] {
            let train = req.train.map_or(String::new(), |t| t.to_string());
            match x.fig12_norm {
                Some(v) => {
                    if fig12
                        .insert((req.scale, train), v)
                        .is_some_and(|old| old != v)
                    {
                        bad("fig12 report differs between repeats".into());
                    }
                }
                None => bad("fig12 report has no AVG wish-jjl value".into()),
            }
        }
        if !errs.is_empty() {
            c.failed += 1;
            problems.extend(errs);
        }
    }
    c.norm = fig12.values().sum::<f64>() / fig12.len().max(1) as f64;
    c.entries = std::mem::take(&mut r.seen.entries);
    for (key, entry) in &c.entries {
        if decode_entry(entry)
            .map(|(k, o)| encode_entry(k, &o))
            .as_ref()
            != Some(entry)
        {
            problems.push(format!(
                "job {key} does not re-encode to the streamed entry"
            ));
        }
    }
    c
}

pub fn run(seed: u64, seconds: u64, trace: bool, out_dir: &Path, tag: &str) -> RunReport {
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let base = out_dir.join(tag);
    let mut report = RunReport::default();
    let reqs = requests(seed);

    let setup = set_up(&base, &mut report.problems);

    let mut rounds: Vec<(Round, bool)> = Vec::new();
    // Per round: output digest, wishjjl_norm_time and µops delivered.
    let mut outputs: Vec<(u64, f64, u64)> = Vec::new();
    let mut traced_entries = host::Entries::new();
    loop {
        for traced in if trace {
            &[false, true][..]
        } else {
            &[false][..]
        } {
            let dir = base.join(format!("round-{}", rounds.len()));
            let result = round(&dir, &reqs);
            // Journals and stores are large; keep only the store a traced
            // round's store metrics read back.
            let _ = std::fs::remove_dir_all(dir.join("state"));
            if !*traced {
                let _ = std::fs::remove_dir_all(&dir);
            }
            match result {
                Ok(mut r) => {
                    let c = check(&mut r, &reqs, &mut report.problems);
                    report.attempted += r.exchanges.len() as u64;
                    report.failed += c.failed;
                    outputs.push((host::digest(&c.entries), c.norm, c.uops));
                    if *traced {
                        traced_entries = c.entries;
                    }
                    rounds.push((r, *traced))
                }
                Err(e) => {
                    report.problems.push(format!("round: {e}"));
                    report.attempted += reqs.len() as u64;
                    report.failed += reqs.len() as u64;
                }
            }
        }
        if started.elapsed() >= budget || rounds.is_empty() {
            break;
        }
    }
    if rounds.is_empty() {
        return report;
    }

    if outputs
        .iter()
        .any(|o| (o.0, o.1) != (outputs[0].0, outputs[0].1))
    {
        report
            .problems
            .push("rounds of one seed disagree on outputs".into());
    }
    (report.digest, report.norm) = (outputs[0].0, outputs[0].1);

    let m = &mut report.metrics;
    if !trace {
        // Every round sends the same requests, so each timing is the best
        // (min-of-N) over rounds of its value in reference-host seconds
        // (see `host::reference_kernel`); request timings take each
        // request's best. A run holds only two or three rounds, too few
        // for the median over rounds the sweeps take.
        let best = |f: &dyn Fn(&Round) -> f64| {
            rounds
                .iter()
                .map(|(r, _)| f(r))
                .fold(f64::INFINITY, f64::min)
        };
        let per_request = |pick: fn(&Exchange) -> Option<Instant>| -> Vec<f64> {
            (0..reqs.len())
                .map(|i| {
                    best(&|r| {
                        let x = &r.exchanges[i];
                        pick(x).map_or(f64::INFINITY, |t| {
                            t.duration_since(x.submit).as_secs_f64() * r.to_reference()
                        })
                    })
                })
                .collect()
        };
        let wall = best(&|r| r.wall * r.to_reference());
        eprintln!(
            "perfbench: reference kernel {:.1} us per call (reference {:.1} us); \
             unscaled uops_per_s {:.0}",
            median(&rounds.iter().map(|(r, _)| r.kernel_s).collect::<Vec<_>>()) * 1e6,
            host::REFERENCE_KERNEL_S * 1e6,
            outputs[0].2 as f64 / best(&|r| r.wall),
        );
        let jobs: usize = rounds[0].0.exchanges.iter().map(|x| x.jobs.len()).sum();
        let latency = per_request(|x| x.done);
        set(m, "setup_s", setup.unwrap_or(f64::NAN));
        set(m, "uops_per_s", outputs[0].2 as f64 / wall);
        set(m, "jobs_per_s", jobs as f64 / wall);
        set(m, "req_p50_s", percentile(&latency, 50.0));
        set(m, "req_p90_s", percentile(&latency, 90.0));
        set(
            m,
            "ttfj_p50_s",
            percentile(&per_request(|x| x.jobs.first().map(|j| j.0)), 50.0),
        );
        set(m, "cpu_s", best(&|r| r.cpu_s * r.to_reference()));
        let server_rss = rounds
            .iter()
            .map(|(r, _)| r.server_rss_mib)
            .fold(0.0, f64::max);
        set(m, "peak_rss_mb", host::peak_rss_mib() + server_rss);
        set(m, "wishjjl_norm_time", report.norm);
    } else {
        traced_metrics(
            m,
            started,
            &rounds,
            &traced_entries,
            &mut report.problems,
            &base,
            &out_dir.join(format!("{tag}-spans.jsonl")),
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    report
}

fn traced_metrics(
    m: &mut Metrics,
    started: Instant,
    rounds: &[(Round, bool)],
    entries: &host::Entries,
    problems: &mut Vec<String>,
    base: &Path,
    spans_file: &Path,
) {
    // Client-side spans of the traced rounds: each request with its
    // connect, accepted, per-job and done intervals.
    let mut rec = Recorder::new(started);
    for (r, _) in rounds.iter().filter(|(_, t)| *t) {
        for x in &r.exchanges {
            let end = x.done.or(x.jobs.last().map(|j| j.0)).unwrap_or(x.submit);
            let root = rec.interval("request", None, Some(x.index), x.submit, end);
            let mut last = x.submit;
            let mut step = |name: &'static str, at: Option<Instant>, rec: &mut Recorder| {
                if let Some(at) = at {
                    rec.interval(name, Some(root), Some(x.index), last, at);
                    last = at;
                }
            };
            step("serve.connect", x.connected, &mut rec);
            step("serve.accepted", x.accepted, &mut rec);
            for (at, _) in &x.jobs {
                step("serve.job", Some(*at), &mut rec);
            }
            step("serve.done", x.done, &mut rec);
        }
    }
    let xs = |pick: &dyn Fn(&Exchange) -> Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(_, t)| *t)
            .flat_map(|(r, _)| r.exchanges.iter().flat_map(pick))
            .collect()
    };
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    set(
        m,
        "serve.accept_s",
        median(&xs(&|x| {
            x.accepted
                .map(|a| a.duration_since(x.submit).as_secs_f64())
                .into_iter()
                .collect()
        })),
    );
    set(
        m,
        "serve.job_gap_ms",
        median(&xs(&|x| {
            x.jobs.windows(2).map(|w| ms(w[0].0, w[1].0)).collect()
        })),
    );
    set(
        m,
        "serve.done_tail_ms",
        median(&xs(&|x| match (x.jobs.last(), x.done) {
            (Some(j), Some(d)) => vec![ms(j.0, d)],
            _ => Vec::new(),
        })),
    );
    let traced_rounds: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let per_round = |f: &dyn Fn(&Exchange) -> u64| {
        traced_rounds
            .iter()
            .map(|r| r.exchanges.iter().map(f).sum::<u64>())
            .sum::<u64>() as f64
            / traced_rounds.len() as f64
    };
    set(
        m,
        "serve.respawns",
        traced_rounds
            .iter()
            .map(|r| r.exchanges.iter().map(|x| x.respawns).max().unwrap_or(0))
            .sum::<u64>() as f64,
    );
    set(m, "serve.rejected", per_round(&|x| u64::from(x.rejected)));
    let hits = per_round(&|x| x.store_hits);
    let misses = per_round(&|x| x.store_misses);
    set(m, "store.hit_ratio", hits / (hits + misses).max(1.0));
    set(m, "store.misses", misses);
    set(m, "ir.profile_runs", per_round(&|x| x.profile_runs));
    set(m, "compiler.compiles", per_round(&|x| x.compiles));

    let suite_build: Vec<f64> = SCALES
        .iter()
        .map(|&s| {
            let t = Instant::now();
            std::hint::black_box(suite(s));
            t.elapsed().as_secs_f64()
        })
        .collect();
    set(m, "workloads.suite_build_s", median(&suite_build));
    let last = rounds
        .iter()
        .rposition(|(_, t)| *t)
        .expect("a traced round ran");
    let outcomes: BTreeMap<u64, RunOutcome> =
        entries.values().filter_map(|e| decode_entry(e)).collect();
    let stats: Vec<_> = outcomes.values().map(|o| &o.sim.stats).collect();
    layers::sim_counts(m, &stats);
    let scratch = base.join("scratch-store");
    problems.extend(layers::store_codec(
        m,
        &outcomes,
        Some(&rounds[last].0.store_dir),
        &scratch,
    ));
    // Host time inside the server's workers is not visible to a client;
    // these layers are measured on the sweep workloads.
    for name in [
        "ir.profile_s",
        "compiler.compile_s",
        "engine.profile_hit_ratio",
        "engine.compile_hit_ratio",
        "engine.job_overhead_s",
        "uarch.build_s",
        "uarch.run_s",
        "uarch.ns_per_sim_cycle",
        "uarch.ns_per_uop",
        "isa.verify_s",
        "isa.lockstep_s",
        "isa.retire_records",
    ] {
        set(m, name, 0.0);
    }
    let kernel: Vec<f64> = rounds
        .iter()
        .filter(|(_, traced)| !traced)
        .map(|(r, _)| r.kernel_s * 1e6)
        .collect();
    set(m, "host.ref_kernel_us", median(&kernel));
    let wall = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(r, _)| r.wall)
                .collect::<Vec<_>>(),
        )
    };
    let (untraced_wall, traced_wall) = (wall(false), wall(true));
    set(m, "trace.overhead_s", traced_wall - untraced_wall);
    set(
        m,
        "trace.overhead_share",
        (traced_wall - untraced_wall) / untraced_wall,
    );
    if let Err(e) = rec.write(spans_file) {
        problems.push(format!("cannot write span file: {e}"));
    }
}
