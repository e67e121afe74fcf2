//! The benchmark's own tracing: host-time spans around calls into each
//! layer, and a [`TraceSink`] that stamps every round record with the host
//! clock. Spans stay in memory and are written out when the run ends.

use std::io::Write;
use std::time::Instant;

use dirgl_core::{EngineKind, RoundRecord, TraceSink};

/// A round counts as dense when its active vertices reach this share of
/// the vertices it covers (all of them under BSP, the device's share under
/// BASP).
pub const DENSE_SHARE: f64 = 0.05;

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`;
/// 0 where that file cannot be read.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// One timed call: which layer, which pass, and its host interval in
/// seconds from the start of the run.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span was taken at (`generate`, `build`, ...).
    pub name: &'static str,
    /// Pass the span belongs to (`None` for set-up).
    pub pass: Option<usize>,
    /// Start, seconds since the run began.
    pub start: f64,
    /// End, seconds since the run began.
    pub end: f64,
}

/// In-memory span log. Disabled, it records nothing and costs one branch.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A log whose clock starts now.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the clock keeps running).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Seconds since the log's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times `f` and, when enabled, records it as `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        pass: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(name, pass, start, end);
        (r, end - start)
    }

    /// Records an interval measured elsewhere (the serve workload's submit
    /// → complete spans).
    pub fn push(&mut self, name: &'static str, pass: Option<usize>, start: f64, end: f64) {
        if self.on {
            self.spans.push(Span {
                name,
                pass,
                start,
                end,
            });
        }
    }

    /// Summed duration of `pass`'s spans named in `names`.
    pub fn sum(&self, pass: usize, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.pass == Some(pass) && names.contains(&s.name))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let pass = s.pass.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": \"{}\", \"pass\": {pass}, \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Host time per round, split by frontier density.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimes {
    /// Rounds timed (BSP global rounds plus BASP device-local rounds).
    pub rounds: u64,
    /// Dense rounds and their summed host seconds.
    pub dense: (u64, f64),
    /// Sparse rounds and their summed host seconds.
    pub sparse: (u64, f64),
}

impl RoundTimes {
    /// Adds another tally.
    pub fn add(&mut self, o: &RoundTimes) {
        self.rounds += o.rounds;
        self.dense.0 += o.dense.0;
        self.dense.1 += o.dense.1;
        self.sparse.0 += o.sparse.0;
        self.sparse.1 += o.sparse.1;
    }

    /// Mean microseconds per round of one kind (0 when none ran).
    pub fn mean_us((n, s): (u64, f64)) -> f64 {
        if n == 0 {
            0.0
        } else {
            s * 1e6 / n as f64
        }
    }
}

/// A [`TraceSink`] that stamps each round record with the host clock and
/// keeps only what the round split needs.
///
/// BSP delivers one record per device at the end of each global round, so
/// a global round is the run of consecutive records with one round number
/// and its host time runs from the previous round's last record to its own
/// last record. BASP delivers one record per device-local round, each of
/// which is its own round. The first round's time starts at
/// [`RoundClock::new`], taken just before the engine is called.
pub struct RoundClock {
    start: Instant,
    vertices: u64,
    devices: u64,
    /// (engine, round, host seconds since start, frontier) per record.
    stamps: Vec<(EngineKind, u32, f64, u64)>,
}

impl RoundClock {
    /// A clock for one run over `vertices` vertices on `devices` devices.
    pub fn new(vertices: u32, devices: u32) -> RoundClock {
        RoundClock {
            start: Instant::now(),
            vertices: u64::from(vertices.max(1)),
            devices: u64::from(devices.max(1)),
            stamps: Vec::new(),
        }
    }

    /// Groups the stamps into rounds and splits them by density.
    pub fn times(&self) -> RoundTimes {
        let mut t = RoundTimes::default();
        let mut prev_end = 0.0;
        let mut i = 0;
        while i < self.stamps.len() {
            let (engine, round, _, _) = self.stamps[i];
            let mut j = i + 1;
            if engine == EngineKind::Bsp {
                while j < self.stamps.len()
                    && self.stamps[j].0 == EngineKind::Bsp
                    && self.stamps[j].1 == round
                {
                    j += 1;
                }
            }
            let frontier: u64 = self.stamps[i..j].iter().map(|s| s.3).sum();
            let covered = match engine {
                EngineKind::Bsp => self.vertices,
                EngineKind::Basp => self.vertices.div_ceil(self.devices),
            };
            let end = self.stamps[j - 1].2;
            let dt = end - prev_end;
            prev_end = end;
            let slot = if frontier as f64 >= DENSE_SHARE * covered as f64 {
                &mut t.dense
            } else {
                &mut t.sparse
            };
            slot.0 += 1;
            slot.1 += dt;
            t.rounds += 1;
            i = j;
        }
        t
    }
}

impl TraceSink for RoundClock {
    fn record(&mut self, rec: RoundRecord) {
        let at = self.start.elapsed().as_secs_f64();
        self.stamps.push((rec.engine, rec.round, at, rec.frontier));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_comm::SimTime;
    use dirgl_core::TraceDirection;

    fn rec(engine: EngineKind, round: u32, device: u32, frontier: u64) -> RoundRecord {
        RoundRecord {
            engine,
            round,
            device,
            direction: TraceDirection::Push,
            frontier,
            compute: SimTime::ZERO,
            pack: SimTime::ZERO,
            wait: SimTime::ZERO,
            bytes_sent: 0,
            bytes_received: 0,
            messages_sent: 0,
            messages_received: 0,
            absorb_changed: 0,
            clock_end: SimTime::ZERO,
        }
    }

    #[test]
    fn bsp_records_group_into_global_rounds() {
        let mut c = RoundClock::new(100, 2);
        // Round 0 dense (60 of 100 active), round 1 sparse (2 of 100).
        c.record(rec(EngineKind::Bsp, 0, 0, 30));
        c.record(rec(EngineKind::Bsp, 0, 1, 30));
        c.record(rec(EngineKind::Bsp, 1, 0, 1));
        c.record(rec(EngineKind::Bsp, 1, 1, 1));
        let t = c.times();
        assert_eq!(t.rounds, 2);
        assert_eq!(t.dense.0, 1);
        assert_eq!(t.sparse.0, 1);
        let total = c.stamps.last().unwrap().2;
        assert!((t.dense.1 + t.sparse.1 - total).abs() < 1e-12);
    }

    #[test]
    fn basp_records_are_rounds_of_their_own() {
        let mut c = RoundClock::new(100, 2);
        c.record(rec(EngineKind::Basp, 0, 0, 50));
        c.record(rec(EngineKind::Basp, 0, 1, 1));
        c.record(rec(EngineKind::Basp, 1, 0, 1));
        let t = c.times();
        assert_eq!(t.rounds, 3);
        assert_eq!((t.dense.0, t.sparse.0), (1, 2));
    }
}
