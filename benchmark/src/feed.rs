//! The `gateway-live` inputs: a seeded session schedule, the matching
//! live and batch scenarios, and a feed generator that respects the
//! protocol's line cap.

use crate::stats::SplitMix;
use jmso_gateway::{format_segment_request, LiveEvent, MAX_LINE_BYTES};
use jmso_media::generate_sessions;
use jmso_sim::{ArrivalSpec, Scenario};

/// Pool size and horizon. Sized so that one daemon life (spawn, ingest,
/// run, exit) takes a few seconds and a run of the benchmark holds
/// several of them.
pub const LIVE_USERS: usize = 1_000;
pub const LIVE_SLOTS: u64 = 1_500;
/// Checkpoint cadence passed to the daemon.
pub const LIVE_CKPT_EVERY: u64 = 300;
/// Phase A sends at least this many session events, in lines as long
/// as the protocol allows (about 380 events, so over 200 lines). A feed
/// line costs the daemon four thread wake-ups whatever it carries, and on
/// this VM a wake-up's latency swings several-fold with the host's load;
/// full lines keep the program's own work (parse, DPI, apply) the larger
/// part of what `ingest_events_per_s` measures.
pub const MIN_FEED_EVENTS: usize = 80_000;

pub struct LivePlan {
    /// What the daemon serves under `--ingest`: no planned arrivals.
    pub live: Scenario,
    /// The equivalent batch scenario: the final schedule declared up
    /// front, rates learnt through DPI.
    pub batch: Scenario,
    pub arrivals: Vec<u64>,
    pub departures: Vec<Option<u64>>,
    /// Each user's DPI-inspectable segment request.
    pub requests: Vec<String>,
}

pub fn live_plan(seed: u64) -> LivePlan {
    let mut live = Scenario::paper_default(LIVE_USERS).with_seed(seed);
    live.slots = LIVE_SLOTS;
    // 10–60 s videos: about thirty sessions in flight, like the paper's
    // cell. Arrivals span the whole horizon, so on every seed somebody
    // is still watching when it ends and the run is `LIVE_SLOTS` long.
    live.workload.size_range_kb = (5_000.0, 20_000.0);

    let mut rng = SplitMix(seed ^ 0x6a77_5f6c_6976_6521);
    let arrivals: Vec<u64> = (0..LIVE_USERS).map(|_| rng.range(0, LIVE_SLOTS)).collect();
    let departures: Vec<Option<u64>> = arrivals
        .iter()
        .map(|&a| (rng.range(0, 10) == 0).then(|| a + rng.range(5, 60)))
        .collect();
    // The rate each request declares is the session's own mean rate,
    // which is what the batch path's `rate_via_dpi` synthesises.
    let requests = generate_sessions(&live.workload, LIVE_USERS, seed)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let wire = format_segment_request(&format!("user{i}"), 0, s.bitrate.mean_rate(), None);
            String::from_utf8_lossy(&wire).into_owned()
        })
        .collect();

    let mut batch = live.clone();
    batch.rate_via_dpi = true;
    batch.arrivals = ArrivalSpec::Declared {
        arrivals: arrivals.clone(),
        departures: departures.clone(),
    };
    LivePlan {
        live,
        batch,
        arrivals,
        departures,
        requests,
    }
}

impl LivePlan {
    /// One pass over the pool: every user's `arrive` (with its request)
    /// and, for those who leave early, `depart`. A provisional pass draws
    /// arrival slots that the final pass then reschedules; departures
    /// are final from the start, so every event is valid when applied
    /// (an arrival before the departure in force, and vice versa).
    fn pass(&self, provisional: Option<&mut SplitMix>) -> Vec<LiveEvent> {
        let mut rng = provisional;
        let mut events = Vec::with_capacity(self.arrivals.len() * 11 / 10);
        for (user, (&arrival, &departure)) in self.arrivals.iter().zip(&self.departures).enumerate()
        {
            let slot = match rng.as_deref_mut() {
                Some(r) => r.range(0, departure.unwrap_or(LIVE_SLOTS)),
                None => arrival,
            };
            events.push(LiveEvent::Arrive {
                user,
                slot,
                request: Some(self.requests[user].clone()),
            });
            if let Some(slot) = departure {
                events.push(LiveEvent::Depart { user, slot });
            }
        }
        events
    }

    /// The schedule itself: the pass that leaves the daemon holding the
    /// batch scenario's declared plan.
    pub fn final_pass(&self) -> Vec<LiveEvent> {
        self.pass(None)
    }

    /// The scripted feed: provisional passes until `min_events` is
    /// reached with the final pass included, so the schedule the daemon
    /// ends up with is exactly the batch scenario's declared plan.
    pub fn feed_events(&self, seed: u64, min_events: usize) -> Vec<LiveEvent> {
        let final_pass = self.final_pass();
        let mut rng = SplitMix(seed ^ 0x7265_7363_6865_6421);
        let mut events = Vec::new();
        while events.len() + final_pass.len() < min_events {
            events.extend(self.pass(Some(&mut rng)));
        }
        events.extend(final_pass);
        events
    }
}

/// Pack events, in order, into `feed` command lines of at most
/// [`MAX_LINE_BYTES`] bytes each. Returns each line with the number of
/// events it carries.
pub fn feed_lines(events: &[LiveEvent]) -> Vec<(String, usize)> {
    const HEAD: &str = "{\"cmd\":\"feed\",\"events\":[";
    const TAIL: &str = "]}";
    let mut lines = Vec::new();
    let mut line = String::from(HEAD);
    let mut count = 0;
    for ev in events {
        let json = serde_json::to_string(ev).unwrap_or_default();
        if count > 0 && line.len() + 1 + json.len() + TAIL.len() > MAX_LINE_BYTES {
            line.push_str(TAIL);
            lines.push((std::mem::replace(&mut line, String::from(HEAD)), count));
            count = 0;
        }
        if count > 0 {
            line.push(',');
        }
        line.push_str(&json);
        count += 1;
    }
    if count > 0 {
        line.push_str(TAIL);
        lines.push((line, count));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_gateway::{parse_command, GwCommand};

    #[test]
    fn lines_respect_the_protocol_cap_and_keep_every_event() {
        let plan = live_plan(7);
        let events = plan.feed_events(7, MIN_FEED_EVENTS);
        assert!(events.len() >= MIN_FEED_EVENTS);
        let lines = feed_lines(&events);
        assert!(lines.len() >= 200, "phase A is at least 200 lines");
        let mut back = Vec::new();
        for (line, n) in &lines {
            assert!(line.len() <= MAX_LINE_BYTES);
            match parse_command(line).expect("daemon accepts the line") {
                GwCommand::Feed { events } => {
                    assert_eq!(events.len(), *n);
                    back.extend(events);
                }
                other => panic!("not a feed: {other:?}"),
            }
        }
        assert_eq!(back, events);
    }

    #[test]
    fn final_pass_is_the_declared_plan() {
        let plan = live_plan(3);
        let events = plan.feed_events(3, MIN_FEED_EVENTS);
        let mut arrivals = vec![u64::MAX; LIVE_USERS];
        let mut departures = vec![None; LIVE_USERS];
        for ev in &events {
            match ev {
                LiveEvent::Arrive { user, slot, .. } => {
                    assert!(departures[*user].is_none_or(|d| *slot < d));
                    arrivals[*user] = *slot;
                }
                LiveEvent::Depart { user, slot } => {
                    assert!(*slot > arrivals[*user]);
                    departures[*user] = Some(*slot);
                }
            }
        }
        assert_eq!(arrivals, plan.arrivals);
        assert_eq!(departures, plan.departures);
    }
}
