//! The coordinator/worker message set: line-oriented UTF-8 text carried
//! inside CRC-checked frames ([`crate::frame`]).
//!
//! # Conversation
//!
//! The protocol is strict request/reply, always initiated by the worker:
//!
//! ```text
//! worker                      coordinator
//! hello <proto> <fp> <name> → welcome <id>   (or reject <reason>)
//! request <id>              → assign … | wait <ms> | done
//! ping <id>                 → ok            (heartbeat between samples)
//! result <unit> <id> …      → ack <unit>
//! ```
//!
//! The `hello` carries a fingerprint over every corner's name and
//! [`config_fingerprint`](issa_core::checkpoint::config_fingerprint), so
//! configurations are never serialized over the wire: both sides build
//! them from identical command lines, and a worker whose build or flags
//! disagree is rejected at the door instead of silently computing
//! different physics.
//!
//! Result payloads reuse the checkpoint record lines (`o`/`d`/`f`,
//! [`issa_core::checkpoint`]) — quarantined failures travel between
//! processes through the same codec that persists them to disk.

use issa_circuit::perf::PerfSnapshot;
use issa_core::campaign::CampaignCorner;
use issa_core::checkpoint::{
    config_fingerprint, escape, failure_fields, parse_failure_fields, unescape,
};
use issa_core::montecarlo::{McPhase, SampleFailure};

/// Protocol version spoken by this build; a `hello` with any other
/// version is rejected.
pub const PROTO_VERSION: u32 = 1;

/// One leased work unit: a contiguous index range of one corner's phase.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitAssignment {
    /// Coordinator-unique unit id (echoed in the result and ack).
    pub unit_id: u64,
    /// Campaign corner name; the worker must know this corner.
    pub corner: String,
    /// Which Monte Carlo phase to run.
    pub phase: McPhase,
    /// For the delay phase: the corner-wide resolved bitline swing as
    /// exact `f64` bits ([`issa_core::montecarlo::delay_swing_volts`]
    /// over the merged offset distribution — a worker that never saw the
    /// other samples still measures at exactly the single-process swing).
    /// Zero for offset phases.
    pub swing_bits: u64,
    /// First sample index (inclusive).
    pub start: usize,
    /// Last sample index (exclusive).
    pub end: usize,
    /// For tail-round offset phases: the coordinator's resolved proposal
    /// shifts — the positive-side per-device vector followed by the
    /// negative-side one, exact `f64` bits per entry (the worker installs
    /// them through [`issa_core::tail::with_resolved`] so shifted samples
    /// replay the coordinator's proposal bit-for-bit). Empty for classic
    /// and pilot offset phases and for delay phases.
    pub tail_bits: Vec<u64>,
}

impl UnitAssignment {
    /// The delay-phase swing in volts.
    #[must_use]
    pub fn swing_volts(&self) -> f64 {
        f64::from_bits(self.swing_bits)
    }
}

/// Per-unit hot-path counters attributed to the worker that computed it.
///
/// The worker reads the thread-scoped counters
/// ([`issa_circuit::perf::thread_snapshot`],
/// [`issa_core::perf::thread_sense_calls`]) around the unit, so the
/// attribution is exact even in loopback mode, where several workers
/// compute concurrently in one process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerPerf {
    /// Circuit-level counters consumed by the unit.
    pub circuit: PerfSnapshot,
    /// Sense-amplifier probe evaluations consumed by the unit.
    pub sense_calls: u64,
}

impl WorkerPerf {
    /// Element-wise sum, for aggregating a worker's units.
    #[must_use]
    pub fn saturating_add(&self, other: &WorkerPerf) -> WorkerPerf {
        WorkerPerf {
            circuit: self.circuit.saturating_add(&other.circuit),
            sense_calls: self.sense_calls.saturating_add(other.sense_calls),
        }
    }
}

/// One completed (or partially failed) unit: every per-sample record the
/// worker produced, plus the perf delta the unit consumed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitResult {
    /// The assignment's unit id.
    pub unit_id: u64,
    /// The worker that computed it.
    pub worker_id: u64,
    /// Completed offset samples `(index, volts)`.
    pub offsets: Vec<(usize, f64)>,
    /// Completed delay samples `(index, seconds)`.
    pub delays: Vec<(usize, f64)>,
    /// Quarantined samples (solver failure, panic, per-sample timeout).
    pub failures: Vec<SampleFailure>,
    /// Hot-path counters consumed computing this unit.
    pub perf: WorkerPerf,
}

/// A protocol message. See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker handshake: protocol version, campaign fingerprint, and a
    /// human-readable worker name (for reports).
    Hello {
        /// [`PROTO_VERSION`] of the worker's build.
        proto: u32,
        /// [`campaign_fingerprint`] of the worker's corner list.
        campaign_fp: u64,
        /// Worker display name.
        name: String,
    },
    /// Handshake accepted; the id scopes every later message.
    Welcome {
        /// Coordinator-assigned worker id.
        worker_id: u64,
    },
    /// Handshake refused.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker asks for work.
    Request {
        /// The id from `welcome`.
        worker_id: u64,
    },
    /// One leased unit of work.
    Assign(UnitAssignment),
    /// No unit is assignable right now — ask again after this long.
    Wait {
        /// Suggested back-off before the next `request`.
        millis: u64,
    },
    /// The campaign is finished; the worker should exit.
    Done,
    /// Heartbeat: the worker is alive (sent between samples).
    Ping {
        /// The id from `welcome`.
        worker_id: u64,
    },
    /// Heartbeat acknowledged.
    Ok,
    /// A completed unit's records. Boxed: dwarfs the other variants.
    Result(Box<UnitResult>),
    /// Result received (possibly idempotently discarded as a duplicate).
    Ack {
        /// The acknowledged unit id.
        unit_id: u64,
    },
}

impl Msg {
    /// Serializes to a frame payload.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = String::new();
        match self {
            Msg::Hello {
                proto,
                campaign_fp,
                name,
            } => {
                s = format!("hello {proto} {campaign_fp:016x} {}", escape(name));
            }
            Msg::Welcome { worker_id } => s = format!("welcome {worker_id}"),
            Msg::Reject { reason } => s = format!("reject {}", escape(reason)),
            Msg::Request { worker_id } => s = format!("request {worker_id}"),
            Msg::Assign(a) => {
                let phase = match a.phase {
                    McPhase::Offset => 'o',
                    McPhase::Delay => 'd',
                };
                s = format!(
                    "assign {} {} {phase} {:016x} {} {}",
                    a.unit_id,
                    escape(&a.corner),
                    a.swing_bits,
                    a.start,
                    a.end
                );
                for &bits in &a.tail_bits {
                    s.push_str(&format!(" {bits:016x}"));
                }
            }
            Msg::Wait { millis } => s = format!("wait {millis}"),
            Msg::Done => s.push_str("done"),
            Msg::Ping { worker_id } => s = format!("ping {worker_id}"),
            Msg::Ok => s.push_str("ok"),
            Msg::Ack { unit_id } => s = format!("ack {unit_id}"),
            Msg::Result(r) => {
                s = format!("result {} {}", r.unit_id, r.worker_id);
                for &(i, v) in &r.offsets {
                    s.push_str(&format!("\no {i} {:016x}", v.to_bits()));
                }
                for &(i, v) in &r.delays {
                    s.push_str(&format!("\nd {i} {:016x}", v.to_bits()));
                }
                for f in &r.failures {
                    s.push_str(&format!("\nf {}", failure_fields(f)));
                }
                let c = &r.perf.circuit;
                s.push_str(&format!(
                    "\nperf {} {} {} {} {} {} {} {} {} {} {}",
                    c.transients,
                    c.timesteps,
                    c.newton_iterations,
                    c.lu_factorizations,
                    c.recoveries_damped,
                    c.recoveries_dt_halved,
                    c.recoveries_gmin,
                    c.recoveries_source,
                    c.recoveries_failed,
                    c.cancellations,
                    r.perf.sense_calls
                ));
            }
        }
        s.into_bytes()
    }

    /// Parses a frame payload.
    ///
    /// # Errors
    ///
    /// A structurally invalid message yields a human-readable
    /// description (the frame layer already vouched for the bytes, so
    /// this means the *peer* is wrong, not the wire).
    pub fn from_bytes(payload: &[u8]) -> Result<Msg, String> {
        let text =
            std::str::from_utf8(payload).map_err(|e| format!("message is not UTF-8: {e}"))?;
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty message")?;
        let mut fields = head.split(' ');
        let tag = fields.next().unwrap_or("");
        let msg = match tag {
            "hello" => Msg::Hello {
                proto: parse_dec(fields.next()).ok_or("hello: bad proto version")?,
                campaign_fp: parse_hex(fields.next()).ok_or("hello: bad fingerprint")?,
                name: unescape(fields.next().ok_or("hello: missing name")?),
            },
            "welcome" => Msg::Welcome {
                worker_id: parse_dec(fields.next()).ok_or("welcome: bad worker id")?,
            },
            "reject" => Msg::Reject {
                reason: unescape(fields.next().ok_or("reject: missing reason")?),
            },
            "request" => Msg::Request {
                worker_id: parse_dec(fields.next()).ok_or("request: bad worker id")?,
            },
            "assign" => Msg::Assign(UnitAssignment {
                unit_id: parse_dec(fields.next()).ok_or("assign: bad unit id")?,
                corner: unescape(fields.next().ok_or("assign: missing corner")?),
                phase: match fields.next() {
                    Some("o") => McPhase::Offset,
                    Some("d") => McPhase::Delay,
                    other => return Err(format!("assign: bad phase {other:?}")),
                },
                swing_bits: parse_hex(fields.next()).ok_or("assign: bad swing bits")?,
                start: parse_dec(fields.next()).ok_or("assign: bad start")?,
                end: parse_dec(fields.next()).ok_or("assign: bad end")?,
                tail_bits: {
                    let mut bits = Vec::new();
                    for field in fields {
                        bits.push(parse_hex(Some(field)).ok_or("assign: bad tail shift bits")?);
                    }
                    bits
                },
            }),
            "wait" => Msg::Wait {
                millis: parse_dec(fields.next()).ok_or("wait: bad millis")?,
            },
            "done" => Msg::Done,
            "ping" => Msg::Ping {
                worker_id: parse_dec(fields.next()).ok_or("ping: bad worker id")?,
            },
            "ok" => Msg::Ok,
            "ack" => Msg::Ack {
                unit_id: parse_dec(fields.next()).ok_or("ack: bad unit id")?,
            },
            "result" => {
                let mut r = UnitResult {
                    unit_id: parse_dec(fields.next()).ok_or("result: bad unit id")?,
                    worker_id: parse_dec(fields.next()).ok_or("result: bad worker id")?,
                    ..UnitResult::default()
                };
                for line in lines {
                    let mut rf = line.split(' ');
                    match rf.next().unwrap_or("") {
                        "o" => r.offsets.push(parse_value_record(&mut rf)?),
                        "d" => r.delays.push(parse_value_record(&mut rf)?),
                        "f" => r
                            .failures
                            .push(parse_failure_fields(&mut rf).map_err(|e| format!("f: {e}"))?),
                        "perf" => {
                            let mut n = || parse_dec::<u64>(rf.next()).ok_or("perf: bad counter");
                            r.perf = WorkerPerf {
                                circuit: PerfSnapshot {
                                    transients: n()?,
                                    timesteps: n()?,
                                    newton_iterations: n()?,
                                    lu_factorizations: n()?,
                                    recoveries_damped: n()?,
                                    recoveries_dt_halved: n()?,
                                    recoveries_gmin: n()?,
                                    recoveries_source: n()?,
                                    recoveries_failed: n()?,
                                    cancellations: n()?,
                                    // Batched-mode counters (batched
                                    // steps, lane steps, scalar
                                    // fallbacks) are process-local
                                    // diagnostics; the wire format
                                    // deliberately does not carry them.
                                    ..PerfSnapshot::default()
                                },
                                sense_calls: n()?,
                            };
                        }
                        other => return Err(format!("result: unknown record tag {other:?}")),
                    }
                }
                return Ok(Msg::Result(Box::new(r)));
            }
            other => return Err(format!("unknown message tag {other:?}")),
        };
        Ok(msg)
    }
}

fn parse_dec<T: std::str::FromStr>(field: Option<&str>) -> Option<T> {
    field?.parse().ok()
}

fn parse_hex(field: Option<&str>) -> Option<u64> {
    u64::from_str_radix(field?, 16).ok()
}

fn parse_value_record<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
) -> Result<(usize, f64), String> {
    let index: usize = parse_dec(fields.next()).ok_or("bad sample index")?;
    let bits = parse_hex(fields.next()).ok_or("bad f64 bits")?;
    Ok((index, f64::from_bits(bits)))
}

/// FNV-1a fingerprint over a campaign's corner list: each corner's name
/// and [`config_fingerprint`]. Coordinator and workers must agree on
/// this before any work is assigned — it is the wire-level analogue of
/// the checkpoint's per-corner fingerprint check.
#[must_use]
pub fn campaign_fingerprint(corners: &[CampaignCorner]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for corner in corners {
        mix(corner.name.as_bytes());
        mix(&config_fingerprint(&corner.name, &corner.cfg).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use issa_core::montecarlo::FailureKind;

    fn round_trip(msg: &Msg) {
        let bytes = msg.to_bytes();
        let decoded = Msg::from_bytes(&bytes).unwrap();
        assert_eq!(&decoded, msg, "payload {:?}", String::from_utf8(bytes));
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(&Msg::Hello {
            proto: PROTO_VERSION,
            campaign_fp: 0xdead_beef,
            name: "worker one (host a)".into(),
        });
        round_trip(&Msg::Welcome { worker_id: 3 });
        round_trip(&Msg::Reject {
            reason: "campaign fingerprint mismatch: stored 1, got 2".into(),
        });
        round_trip(&Msg::Request { worker_id: 3 });
        round_trip(&Msg::Assign(UnitAssignment {
            unit_id: 17,
            corner: "table2/NSSA 80r0 aged".into(),
            phase: McPhase::Delay,
            swing_bits: 0.25f64.to_bits(),
            start: 32,
            end: 64,
            tail_bits: Vec::new(),
        }));
        round_trip(&Msg::Assign(UnitAssignment {
            unit_id: 18,
            corner: "table2/NSSA 80r0 aged".into(),
            phase: McPhase::Offset,
            swing_bits: 0,
            start: 64,
            end: 96,
            tail_bits: vec![1.5f64.to_bits(), (-0.25f64).to_bits(), (-0.0f64).to_bits()],
        }));
        round_trip(&Msg::Wait { millis: 50 });
        round_trip(&Msg::Done);
        round_trip(&Msg::Ping { worker_id: 3 });
        round_trip(&Msg::Ok);
        round_trip(&Msg::Ack { unit_id: 17 });
    }

    #[test]
    fn result_round_trips_with_records_and_perf() {
        let msg = Msg::Result(Box::new(UnitResult {
            unit_id: 17,
            worker_id: 3,
            offsets: vec![(32, 1.25e-3), (33, -4.5e-3), (34, f64::MIN_POSITIVE)],
            delays: vec![(7, 14.2e-12)],
            failures: vec![SampleFailure {
                index: 35,
                seed: 0x1554_2017,
                corner: "Nssa 80r0 25°C/1.00V t=1.0e8s".into(),
                phase: McPhase::Offset,
                kind: FailureKind::TimedOut,
                error: "analysis cancelled\n(per-sample step budget)".into(),
                recovery_attempts: 3,
            }],
            perf: WorkerPerf {
                circuit: PerfSnapshot {
                    transients: 1,
                    timesteps: 2,
                    newton_iterations: 3,
                    lu_factorizations: 4,
                    recoveries_damped: 5,
                    recoveries_dt_halved: 6,
                    recoveries_gmin: 7,
                    recoveries_source: 8,
                    recoveries_failed: 9,
                    cancellations: 10,
                    ..PerfSnapshot::default()
                },
                sense_calls: 11,
            },
        }));
        round_trip(&msg);
    }

    #[test]
    fn f64_values_survive_as_exact_bits() {
        let msg = Msg::Result(Box::new(UnitResult {
            unit_id: 1,
            worker_id: 1,
            offsets: vec![(0, f64::MIN_POSITIVE), (1, -0.0)],
            ..UnitResult::default()
        }));
        let Msg::Result(r) = Msg::from_bytes(&msg.to_bytes()).unwrap() else {
            panic!("expected result");
        };
        assert_eq!(r.offsets[0].1.to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(r.offsets[1].1.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Msg::from_bytes(b"").is_err());
        assert!(Msg::from_bytes(b"frobnicate 1 2 3").is_err());
        assert!(Msg::from_bytes(b"assign x y z").is_err());
        assert!(Msg::from_bytes(&[0xff, 0xfe]).is_err());
    }
}
