//! Per-layer metrics shared by every workload: simulated event counts
//! from `SimStats`, and store/journal codec timings on a run's outcomes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use wishbranch_core::journal::{decode_entry, encode_entry};
use wishbranch_core::{ArtifactStore, RunOutcome};
use wishbranch_uarch::SimStats;

use crate::host::median;

pub type Metrics = BTreeMap<String, f64>;

pub fn set(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated counts of the uarch, bpred and mem layers, summed over jobs.
pub fn sim_counts(m: &mut Metrics, stats: &[&SimStats]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
    let cycles = sum(&|s| s.cycles);
    let retired = sum(&|s| s.retired_uops);
    let fetched = sum(&|s| s.fetched_uops);
    set(m, "uarch.sim_cycles", cycles as f64);
    set(m, "uarch.retired_uops", retired as f64);
    set(m, "uarch.fetched_uops", fetched as f64);
    set(m, "uarch.squashed_uops", sum(&|s| s.squashed_uops) as f64);
    set(m, "uarch.retire_fetch_ratio", share(retired, fetched));
    for (i, (cause, _)) in SimStats::default()
        .cycle_accounting
        .rows()
        .iter()
        .enumerate()
    {
        let c = sum(&|s| s.cycle_accounting.rows()[i].1);
        set(m, &format!("uarch.cyc.{cause}"), share(c, cycles));
    }

    let cond = sum(&|s| s.retired_cond_branches);
    let mispred = sum(&|s| s.retired_mispredicted);
    set(m, "bpred.cond_branches", cond as f64);
    set(m, "bpred.mispredicts", mispred as f64);
    set(m, "bpred.accuracy", 1.0 - share(mispred, cond));
    set(m, "bpred.flushes", sum(&|s| s.flushes) as f64);
    set(
        m,
        "bpred.flushes_avoided",
        sum(&|s| s.flushes_avoided) as f64,
    );
    let classes = |s: &SimStats| [s.wish_jumps, s.wish_joins, s.wish_loops];
    let wish = sum(&|s| classes(s).iter().map(|c| c.total()).sum());
    let high = sum(&|s| {
        classes(s)
            .iter()
            .map(|c| c.high_correct + c.high_mispredicted)
            .sum()
    });
    let low_correct = sum(&|s| classes(s).iter().map(|c| c.low_correct).sum());
    set(m, "bpred.wish_high_conf_share", share(high, wish));
    set(
        m,
        "bpred.wish_low_conf_correct_share",
        share(low_correct, wish - high),
    );

    set(m, "mem.icache_misses", sum(&|s| s.icache.misses) as f64);
    set(m, "mem.l1d_accesses", sum(&|s| s.l1d.accesses()) as f64);
    set(m, "mem.l1d_misses", sum(&|s| s.l1d.misses) as f64);
    set(m, "mem.l2_misses", sum(&|s| s.l2.misses) as f64);
    set(
        m,
        "mem.mshr_full_stalls",
        sum(&|s| s.mshr_full_stalls) as f64,
    );
    set(
        m,
        "mem.port_conflict_stalls",
        sum(&|s| s.port_conflict_stalls) as f64,
    );
    set(
        m,
        "mem.writebuf_full_stalls",
        sum(&|s| s.writebuf_full_stalls) as f64,
    );
    set(m, "mem.store_forwards", sum(&|s| s.store_forwards) as f64);
    set(m, "mem.load_replays", sum(&|s| s.load_replays) as f64);
    set(
        m,
        "mem.wrong_path_fills",
        sum(&|s| s.wrong_path_fills) as f64,
    );
}

/// Times `journal::encode_entry`/`decode_entry` and `ArtifactStore::put`
/// on `outcomes` (puts go to a scratch store under `scratch`), and
/// `ArtifactStore::get` on `read_from` — the store the run wrote, or the
/// scratch store when the workload has none. Every round trip must give
/// back the same entry bytes; mismatches are returned as failed checks.
pub fn store_codec(
    m: &mut Metrics,
    outcomes: &BTreeMap<u64, RunOutcome>,
    read_from: Option<&Path>,
    scratch: &Path,
) -> Vec<String> {
    let mut failures = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let scratch_store = match ArtifactStore::open(scratch) {
        Ok(s) => s,
        Err(e) => return vec![format!("cannot open scratch store: {e}")],
    };
    let (mut enc, mut dec, mut put, mut get, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (&key, outcome) in outcomes {
        let t = Instant::now();
        let line = encode_entry(key, outcome);
        enc.push(us(t));
        bytes.push(line.len() as f64);
        let t = Instant::now();
        let decoded = decode_entry(&line);
        dec.push(us(t));
        if decoded.map(|(k, o)| encode_entry(k, &o)) != Some(line.clone()) {
            failures.push(format!("journal entry {key} does not round-trip"));
        }
        let t = Instant::now();
        let stored = scratch_store.put(key, outcome);
        put.push(us(t));
        if let Err(e) = stored {
            failures.push(format!("store put {key}: {e}"));
        }
    }
    let read_store = match read_from.map(ArtifactStore::open) {
        Some(Ok(s)) => s,
        Some(Err(e)) => return vec![format!("cannot open run store: {e}")],
        None => scratch_store,
    };
    for (&key, outcome) in outcomes {
        let t = Instant::now();
        let got = read_store.get(key);
        get.push(us(t));
        if got.map(|o| encode_entry(key, &o)) != Some(encode_entry(key, outcome)) {
            failures.push(format!("store get {key} does not return the written entry"));
        }
    }
    set(m, "journal.encode_us", median(&enc));
    set(m, "journal.decode_us", median(&dec));
    set(m, "store.put_us", median(&put));
    set(m, "store.get_us", median(&get));
    set(
        m,
        "store.entry_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );
    failures
}
