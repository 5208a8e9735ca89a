//! One rep: a fresh child process that warms the workload up once and then
//! runs timed slices of it until its share of the time budget is spent,
//! printing one JSON line per slice.
//!
//! A rep is its own process so that the global `blunt_obs` counters, CPU
//! time and peak RSS start from nothing, so that set-up (process start,
//! warm-up, sockets, teardown) is paid and measured several times per run,
//! and so that a wedged run can be killed without losing the others. A slice
//! is one `run_store` / `run_store_net` call of the workload's
//! `ops_per_client`. Throughput on a small shared box differs between
//! otherwise identical slices by ±15 % (thread placement, host noise) and
//! hardly depends on slice length, so many short slices and their median
//! say more than a few long ones.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use blunt_net::Addr;
use blunt_obs::{HistogramSnapshot, Json};
use blunt_runtime::{run_net_server, NetServeConfig};
use blunt_store::{run_store, run_store_net, StoreConfig, StoreReport};

use crate::workloads::{Tier, Workload, CLIENTS, REPLICAS, SHARDS};

/// Everything the parent needs from one timed slice. Plain numbers only, so
/// a test can doctor any of them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slice {
    pub ops: u64,
    pub elapsed_ns: u64,
    pub latency_us: HistogramSnapshot,
    pub violations: u64,
    pub overflowed: bool,
    pub monitor_actions: u64,
    pub retransmissions: u64,
    pub degraded_ops: u64,
    /// First transmissions offered to the fault injector.
    pub offered: u64,
    /// Of those, the ones that drew any fate but plain delivery.
    pub faulted: u64,
    pub crashes: u64,
    pub recoveries: u64,
    pub wal_records_lost: u64,
    /// Per shard `(crashes, recoveries)`.
    pub shard_recoveries: Vec<(u64, u64)>,
    pub batch_flushes: u64,
    pub batch_envelopes: u64,
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub dedup_drops: u64,
    pub tag_mismatch_drops: u64,
    pub wal_appends: u64,
    pub fsyncs: u64,
    /// CPU the slice burned, in clock ticks of 1/100 s.
    pub cpu_user_ticks: u64,
    pub cpu_sys_ticks: u64,
    /// The process's peak resident set when the slice ended.
    pub peak_rss_kb: u64,
}

impl Slice {
    /// Why this slice's ops do not count, or `None` for a clean verdict.
    pub fn failure(&self, w: &Workload) -> Option<String> {
        let expected = u64::from(CLIENTS) * w.ops_per_client;
        if self.violations > 0 {
            return Some(format!("{} linearizability violations", self.violations));
        }
        if self.overflowed {
            return Some("a monitor segment overflowed".into());
        }
        if self.ops != expected {
            return Some(format!("{} ops completed, {expected} asked", self.ops));
        }
        if self.monitor_actions != 2 * self.ops {
            return Some(format!(
                "monitor saw {} actions for {} ops",
                self.monitor_actions, self.ops
            ));
        }
        if w.amnesia {
            if self.crashes != self.recoveries {
                return Some(format!(
                    "{} crashes but {} recoveries",
                    self.crashes, self.recoveries
                ));
            }
            if let Some(s) = self.shard_recoveries.iter().position(|&(_, r)| r == 0) {
                return Some(format!("shard {s} never recovered"));
            }
        }
        None
    }

    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = U64_FIELDS
            .iter()
            .map(|(name, get, _)| (name.to_string(), Json::UInt(get(self))))
            .collect();
        let lat = &self.latency_us;
        for (name, v) in [
            ("lat_count", lat.count),
            ("lat_sum", lat.sum),
            ("lat_min", lat.min),
            ("lat_max", lat.max),
        ] {
            fields.push((name.into(), Json::UInt(v)));
        }
        fields.push(("lat_buckets".into(), pairs_to_json(&lat.buckets)));
        fields.push(("overflowed".into(), Json::Bool(self.overflowed)));
        fields.push((
            "shard_recoveries".into(),
            pairs_to_json(&self.shard_recoveries),
        ));
        Json::Obj(fields)
    }

    pub fn from_json(j: &Json) -> Option<Slice> {
        let u = |k: &str| j.get(k)?.as_u64();
        let mut slice = Slice {
            latency_us: HistogramSnapshot {
                count: u("lat_count")?,
                sum: u("lat_sum")?,
                min: u("lat_min")?,
                max: u("lat_max")?,
                buckets: pairs_from_json(j.get("lat_buckets")?)?,
            },
            overflowed: j.get("overflowed")?.as_bool()?,
            shard_recoveries: pairs_from_json(j.get("shard_recoveries")?)?,
            ..Slice::default()
        };
        for (name, _, set) in U64_FIELDS {
            set(&mut slice, u(name)?);
        }
        Some(slice)
    }
}

type U64Field = (&'static str, fn(&Slice) -> u64, fn(&mut Slice, u64));

/// The plain counters of a [`Slice`]: JSON key, getter, setter.
macro_rules! u64_fields {
    ($($field:ident),* $(,)?) => {
        [$((stringify!($field), |s| s.$field, |s, v| s.$field = v)),*]
    };
}

const U64_FIELDS: [U64Field; 22] = u64_fields![
    ops,
    elapsed_ns,
    violations,
    monitor_actions,
    retransmissions,
    degraded_ops,
    offered,
    faulted,
    crashes,
    recoveries,
    wal_records_lost,
    batch_flushes,
    batch_envelopes,
    frames_sent,
    bytes_sent,
    dedup_drops,
    tag_mismatch_drops,
    wal_appends,
    fsyncs,
    cpu_user_ticks,
    cpu_sys_ticks,
    peak_rss_kb,
];

fn pairs_to_json(pairs: &[(u64, u64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(a, b)| Json::Arr(vec![Json::UInt(a), Json::UInt(b)]))
            .collect(),
    )
}

fn pairs_from_json(j: &Json) -> Option<Vec<(u64, u64)>> {
    j.as_arr()?
        .iter()
        .map(|p| match p.as_arr()? {
            [a, b] => Some((a.as_u64()?, b.as_u64()?)),
            _ => None,
        })
        .collect()
}

/// Where the benchmark executable lives: inside the checkout's build
/// directory, which is where everything the benchmark writes goes.
pub fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    exe.parent()
        .expect("an executable lives in a directory")
        .to_path_buf()
}

/// The directory a rep child of process `pid` keeps its sockets in.
pub fn run_dir(pid: u32) -> PathBuf {
    exe_dir().join(format!("rep-{pid}"))
}

/// Removes the run directory when dropped, so a panicking rep cleans up too.
/// The parent removes it again after the child ends, which covers a child
/// the watchdog had to kill.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The child's whole job: warm up at a tenth of a slice, then run timed
/// slices until their run times add up to `budget`, printing each.
pub fn run_rep(w: &Workload, seed: u64, budget: Duration) {
    let dir = RunDir(run_dir(std::process::id()));
    std::fs::create_dir_all(&dir.0).expect("run directory");
    // Socket addresses are relative to the run directory: a Unix socket path
    // holds about a hundred bytes, and a checkout can sit anywhere.
    std::env::set_current_dir(&dir.0).expect("enter run directory");

    let warm = w.store_config(seed, (w.ops_per_client / 10).max(1));
    run_once(w, &warm);

    let cfg = w.store_config(seed, w.ops_per_client);
    let mut spent = Duration::ZERO;
    while spent < budget {
        let slice = timed_slice(w, &cfg);
        spent += Duration::from_nanos(slice.elapsed_ns);
        println!("{}", slice.to_json());
    }
}

fn timed_slice(w: &Workload, cfg: &StoreConfig) -> Slice {
    blunt_obs::reset();
    let (user0, sys0) = cpu_ticks();
    let report = run_once(w, cfg);
    let (user1, sys1) = cpu_ticks();

    let counter = |name: &str| blunt_obs::counter(name).get();
    let s = report.stats;
    Slice {
        ops: report.ops,
        elapsed_ns: u64::try_from(report.elapsed.as_nanos()).expect("a run shorter than centuries"),
        latency_us: report.latency_us,
        violations: report.monitor.violations.len() as u64,
        overflowed: report.monitor.overflowed,
        monitor_actions: report.monitor_actions,
        retransmissions: report.retransmissions,
        degraded_ops: report.degraded_ops,
        offered: s.offered,
        faulted: s.dropped
            + s.duplicated
            + s.reordered
            + s.delayed
            + s.crash_dropped
            + s.partition_dropped,
        crashes: report.recovery.crashes,
        recoveries: report.recovery.recoveries,
        wal_records_lost: report.recovery.wal_records_lost,
        shard_recoveries: report.shard_recoveries,
        batch_flushes: counter("store.batch.flushes"),
        batch_envelopes: counter("store.batch.envelopes"),
        frames_sent: counter("net.frames_sent"),
        bytes_sent: counter("net.bytes_sent"),
        dedup_drops: counter("net.rpc.dedup_drops"),
        tag_mismatch_drops: counter("net.rpc.tag_mismatch_drops"),
        wal_appends: counter("runtime.storage.wal_appends"),
        fsyncs: counter("runtime.storage.fsyncs"),
        cpu_user_ticks: user1 - user0,
        cpu_sys_ticks: sys1 - sys0,
        peak_rss_kb: peak_rss_kb(),
    }
}

fn run_once(w: &Workload, cfg: &StoreConfig) -> StoreReport {
    match w.tier {
        Tier::Bus => run_store(cfg).expect("the workload's fault config is valid"),
        Tier::Uds => run_uds(w, cfg),
    }
}

/// One replica thread per server behind its own Unix socket, the store
/// driver against them, and every server thread joined before returning.
fn run_uds(w: &Workload, cfg: &StoreConfig) -> StoreReport {
    let total = SHARDS * REPLICAS;
    let paths: Vec<String> = (0..total).map(|i| format!("./s{i}.sock")).collect();
    let addrs: Vec<Addr> = paths.iter().map(|p| Addr::parse(p)).collect();
    // The previous slice's socket files must not pass for bound listeners.
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let servers: Vec<_> = (0..total)
        .map(|i| {
            let scfg = NetServeConfig {
                listen: addrs[i as usize].clone(),
                server_id: i,
                servers: total,
                clients: CLIENTS,
                peers: addrs.clone(),
                seed: cfg.seed,
                faults: cfg.faults,
                recovery: w.recovery(),
                shard_size: Some(REPLICAS),
                dump_dir: None,
            };
            thread::spawn(move || run_net_server(&scfg).expect("replica server"))
        })
        .collect();
    // The driver dials lazily and retries a refused connection only every
    // 20 ms; waiting for the listeners keeps that wait out of the timed run.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !paths.iter().all(|p| Path::new(p).exists()) {
        assert!(Instant::now() < deadline, "replica servers never bound");
        thread::sleep(Duration::from_millis(1));
    }
    let report = run_store_net(cfg, &addrs).expect("the workload's fault config is valid");
    for s in servers {
        s.join().expect("replica server thread");
    }
    report
}

/// This process's `(utime, stime)` from `/proc/self/stat`, in clock ticks.
/// Linux reports them in `USER_HZ`, which is 100 on every supported
/// architecture.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; the fixed fields follow its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime fields")
    };
    (next(), next())
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line")
}
