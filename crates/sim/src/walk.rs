//! The free token's walk around the ring, skipped in one step.
//!
//! A released token visits the next station one hop later, and every
//! station that has nothing to send passes it on. Both MACs used to make
//! each of those hops a queue event; on a lightly loaded ring they were
//! nearly all of a run's events. A [`Walk`] instead describes the whole
//! walk in closed form: hop `j` reaches station `(first + j) mod n` at
//! `start + j·hop`. The simulator schedules one event, at the hop whose
//! station captures the token, and accounts the hops it skipped (their
//! event count, rotation marks at station 0 and trace records) only when
//! something needs them: the capture, a token loss, or the end of the run.

use ringrt_units::{SimDuration, SimTime};

use crate::metrics::MetricsCollector;
use crate::trace::TraceRecorder;
use crate::TraceKind;

/// One released token's walk, from its first hop until the station that
/// captures it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    /// When hop 0 reaches `first`.
    start: SimTime,
    first: usize,
    stations: usize,
    hop: SimDuration,
    /// Hops below this index are accounted for.
    passed: u64,
    /// The hop whose station captures the token, once one is known. The
    /// simulator keeps one token event in its queue for it.
    pub target: Option<u64>,
}

impl Walk {
    /// A walk that reaches station `first` at `start` and moves on every
    /// `hop` (which must not be zero) around a ring of `stations`.
    pub fn new(start: SimTime, first: usize, stations: usize, hop: SimDuration) -> Self {
        debug_assert!(!hop.is_zero(), "a zero-time hop has no walk to skip");
        Walk {
            start,
            first,
            stations,
            hop,
            passed: 0,
            target: None,
        }
    }

    /// When hop `j` reaches its station.
    pub fn at(&self, j: u64) -> SimTime {
        self.start + self.hop * j
    }

    /// The station hop `j` reaches.
    pub fn station(&self, j: u64) -> usize {
        (self.first + (j % self.stations as u64) as usize) % self.stations
    }

    /// The first hop that reaches `station`.
    pub fn first_visit(&self, station: usize) -> u64 {
        ((station + self.stations - self.first) % self.stations) as u64
    }

    /// The time of one rotation: the gap between a station's visits.
    pub fn rotation(&self) -> SimDuration {
        self.hop * self.stations as u64
    }

    /// The hops in one rotation: the ring's station count.
    pub fn rotation_hops(&self) -> u64 {
        self.stations as u64
    }

    /// The number of hops that reach their station before `t`.
    pub fn hops_before(&self, t: SimTime) -> u64 {
        if t <= self.start {
            0
        } else {
            t.duration_since(self.start)
                .as_picos()
                .div_ceil(self.hop.as_picos())
        }
    }

    /// The index, counted in rotations, of `station`'s first visit at or
    /// after `t`: token events at an instant follow its arrivals, so a
    /// visit at `t` sees what arrived at `t`.
    pub fn next_round(&self, station: usize, t: SimTime) -> u64 {
        let first = self.first_visit(station);
        let from = self.hops_before(t);
        from.saturating_sub(first).div_ceil(self.stations as u64)
    }

    /// The hop of `station`'s visit in rotation `round`.
    pub fn visit(&self, station: usize, round: u64) -> u64 {
        self.first_visit(station) + round * self.stations as u64
    }

    /// Accounts every hop below `upto`, and below the target: each is one
    /// model event, each visit of station 0 marks a rotation, and each
    /// writes its token-arrival record in time order. Returns the number
    /// of hops accounted.
    pub fn pass(
        &mut self,
        upto: u64,
        metrics: &mut MetricsCollector,
        trace: &mut TraceRecorder,
    ) -> u64 {
        let upto = upto.min(self.target.unwrap_or(u64::MAX));
        if upto <= self.passed {
            return 0;
        }
        let (from, n) = (self.passed, self.stations as u64);
        let zero = from + (self.first_visit(0) + n - from % n) % n;
        if zero < upto {
            let marks = (upto - 1 - zero) / n + 1;
            metrics.mark_rotations(self.at(zero), marks, self.rotation());
        }
        trace.record_many(upto - from, |k| {
            let j = from + k;
            (
                self.at(j),
                TraceKind::TokenArrive {
                    station: self.station(j),
                },
            )
        });
        self.passed = upto;
        upto - from
    }

    /// Ends a walk that a token loss or the run's end cuts short at
    /// `before`: accounts the hops before it, and returns their number,
    /// plus one for the hop the token was then on its way to if that hop
    /// lands by `end` (the hop walk pops that arrival, discarded after a
    /// loss).
    pub fn cut(
        mut self,
        before: SimTime,
        end: SimTime,
        metrics: &mut MetricsCollector,
        trace: &mut TraceRecorder,
    ) -> u64 {
        let passed = self.pass(self.hops_before(before), metrics, trace);
        passed + u64::from(self.at(self.passed) <= end)
    }
}

/// A set of stations, as a bitmap: the stations that would capture a
/// free token, scanned in ring order from where the token is released.
#[derive(Debug, Clone, Default)]
pub(crate) struct StationSet {
    words: Vec<u64>,
}

impl StationSet {
    pub fn new(stations: usize) -> Self {
        StationSet {
            words: vec![0; stations.div_ceil(64)],
        }
    }

    pub fn set(&mut self, st: usize, member: bool) {
        let bit = 1u64 << (st % 64);
        if member {
            self.words[st / 64] |= bit;
        } else {
            self.words[st / 64] &= !bit;
        }
    }

    /// The members at `first` and after it, then those before it.
    pub fn ring_from(&self, first: usize) -> impl Iterator<Item = usize> + '_ {
        self.members_from(first)
            .chain(self.members_from(0).take_while(move |&st| st < first))
    }

    fn members_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let start = from / 64;
        self.words
            .iter()
            .enumerate()
            .skip(start)
            .flat_map(move |(w, &word)| {
                let mut bits = if w == start {
                    word & (u64::MAX << (from % 64))
                } else {
                    word
                };
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            })
    }
}

/// The number of passes, among passes at `first`, `first + rotation`, …,
/// before the first that finds the token early: less than `ttrt` since
/// the station's TRT restarted at `trt`. A late pass restarts the TRT
/// `ttrt` after its last start, an early one at the pass. `None` if no
/// pass is ever early.
pub(crate) fn late_passes(
    trt: SimTime,
    first: SimTime,
    rotation: SimDuration,
    ttrt: SimDuration,
) -> Option<u64> {
    let elapsed = first.saturating_duration_since(trt);
    if elapsed < ttrt {
        Some(0)
    } else if rotation < ttrt {
        // Each late pass gains `ttrt - rotation` on the TRT.
        let excess = (elapsed - ttrt).as_picos();
        Some(excess / (ttrt - rotation).as_picos() + 1)
    } else {
        None
    }
}

/// The TRT start of a station after `count` passes of a token that
/// transmits nothing, at `first`, `first + rotation`, …, starting from
/// `trt`.
pub(crate) fn trt_after_passes(
    trt: SimTime,
    first: SimTime,
    rotation: SimDuration,
    count: u64,
    ttrt: SimDuration,
) -> SimTime {
    match late_passes(trt, first, rotation, ttrt) {
        Some(late) if late < count => {
            let early = first + rotation * late;
            let after = count - late - 1;
            if rotation < ttrt {
                // Every pass after an early one is early too.
                early + rotation * after
            } else {
                early + ttrt * after
            }
        }
        _ => trt + ttrt * count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(p: u64) -> SimTime {
        SimTime::from_picos(p)
    }

    fn d(p: u64) -> SimDuration {
        SimDuration::from_picos(p)
    }

    /// The pass rule applied one pass at a time.
    fn stepwise(
        mut trt: SimTime,
        first: SimTime,
        rotation: SimDuration,
        count: u64,
        ttrt: SimDuration,
    ) -> SimTime {
        for m in 0..count {
            let at = first + rotation * m;
            if at.saturating_duration_since(trt) >= ttrt {
                trt += ttrt;
            } else {
                trt = at;
            }
        }
        trt
    }

    #[test]
    fn closed_form_passes_match_the_stepwise_rule() {
        for trt in [0, 5, 40, 97, 300] {
            for first in [trt, trt + 3, trt + 50, trt + 400] {
                for rotation in [1, 7, 10, 11, 25] {
                    for ttrt in [0, 1, 10, 33] {
                        for count in 0..30 {
                            let (t, f, r, q) = (ps(trt), ps(first), d(rotation), d(ttrt));
                            assert_eq!(
                                trt_after_passes(t, f, r, count, q),
                                stepwise(t, f, r, count, q),
                                "trt {trt} first {first} rotation {rotation} ttrt {ttrt} count {count}"
                            );
                            let early = (0..count).find(|&m| {
                                let before = stepwise(t, f, r, m, q);
                                (f + r * m).saturating_duration_since(before) < q
                            });
                            if let Some(m) = early {
                                assert_eq!(late_passes(t, f, r, q), Some(m));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn station_sets_scan_in_ring_order() {
        let mut set = StationSet::new(130);
        for st in [3, 64, 65, 127, 129] {
            set.set(st, true);
        }
        set.set(65, false);
        let order = |first| set.ring_from(first).collect::<Vec<_>>();
        assert_eq!(order(0), [3, 64, 127, 129]);
        assert_eq!(order(64), [64, 127, 129, 3]);
        assert_eq!(order(128), [129, 3, 64, 127]);
        assert_eq!(StationSet::new(5).ring_from(2).count(), 0);
    }

    #[test]
    fn visits_and_hop_counts() {
        let walk = Walk::new(ps(100), 3, 5, d(10));
        assert_eq!(walk.station(0), 3);
        assert_eq!(walk.station(2), 0);
        assert_eq!(walk.station(7), 0);
        assert_eq!(walk.first_visit(0), 2);
        assert_eq!(walk.hops_before(ps(100)), 0);
        assert_eq!(walk.hops_before(ps(101)), 1);
        assert_eq!(walk.hops_before(ps(110)), 1);
        // Station 0 is visited at hops 2, 7, 12 (times 120, 170, 220).
        assert_eq!(walk.visit(0, walk.next_round(0, ps(50))), 2);
        assert_eq!(walk.visit(0, walk.next_round(0, ps(120))), 2);
        assert_eq!(walk.visit(0, walk.next_round(0, ps(121))), 7);
        assert_eq!(walk.visit(0, walk.next_round(0, ps(171))), 12);
    }

    #[test]
    fn passing_marks_rotations_in_closed_form() {
        let mut metrics = MetricsCollector::new(0, ps(10_000));
        let mut trace = TraceRecorder::new(4);
        let mut walk = Walk::new(ps(100), 3, 5, d(10));
        assert_eq!(walk.pass(13, &mut metrics, &mut trace), 13);
        // Station 0 at hops 2, 7, 12: two full rotations of 50 ps.
        assert_eq!(metrics.rotations.count(), 2);
        assert_eq!(metrics.rotations.max(), Some(d(50)));
        let (records, dropped) = trace.into_events();
        assert_eq!(records.len(), 4);
        assert_eq!(dropped, 9);
        assert_eq!(records[2].kind, TraceKind::TokenArrive { station: 0 });
        assert_eq!(records[3].at, ps(130));
    }
}
