//! Binary on-disk trace format.
//!
//! Real PAS2P trace files reach gigabytes (Table 3 reports 5.2 GB for a
//! 256-process Moldy run; Table 8 lists per-application TFSize). To report
//! the same metric we serialize traces into a compact fixed-record binary
//! format: a header followed by per-process sections of 56-byte event
//! records. `Trace::size_bytes` reports the encoded size without
//! materializing the buffer.

use crate::event::{EventKind, Trace, TraceEvent};
use pas2p_machine::CollectiveKind;

/// Magic bytes opening every trace file.
pub const MAGIC: &[u8; 8] = b"PAS2PTRC";
/// Format version.
pub const VERSION: u32 = 1;
/// Size of one encoded event record in bytes.
pub const EVENT_RECORD_BYTES: u64 = 64;

/// Why a trace buffer's header or a record could not be decoded; the
/// recovering decoder in [`crate::ingest`] reports it and resyncs.
#[derive(Debug)]
pub(crate) enum TraceDecodeError {
    /// Buffer does not start with the PAS2P magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Buffer ended prematurely.
    Truncated,
    /// An enum discriminant was out of range.
    BadTag(u8),
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not a PAS2P trace (bad magic)"),
            TraceDecodeError::BadVersion(v) => write!(f, "unsupported trace version {}", v),
            TraceDecodeError::Truncated => write!(f, "trace buffer truncated"),
            TraceDecodeError::BadTag(t) => write!(f, "invalid discriminant {}", t),
        }
    }
}

/// Size the encoded form of `trace` would occupy, in bytes.
pub fn encoded_size(trace: &Trace) -> u64 {
    let header = 8 + 4 + 4 + 4 + trace.machine.len() as u64;
    let per_proc: u64 = trace
        .procs
        .iter()
        .map(|p| 4 + 8 + 8 + p.events.len() as u64 * EVENT_RECORD_BYTES)
        .sum();
    header + per_proc
}

fn kind_tags(kind: EventKind) -> (u8, u8) {
    match kind {
        EventKind::Send => (0, 0),
        EventKind::Recv => (1, 0),
        EventKind::Coll(c) => (
            2,
            match c {
                CollectiveKind::Barrier => 0,
                CollectiveKind::Bcast => 1,
                CollectiveKind::Reduce => 2,
                CollectiveKind::Allreduce => 3,
                CollectiveKind::Allgather => 4,
                CollectiveKind::Alltoall => 5,
                CollectiveKind::Gather => 6,
                CollectiveKind::Scatter => 7,
            },
        ),
    }
}

fn kind_from_tags(k: u8, c: u8) -> Result<EventKind, TraceDecodeError> {
    Ok(match k {
        0 => EventKind::Send,
        1 => EventKind::Recv,
        2 => EventKind::Coll(match c {
            0 => CollectiveKind::Barrier,
            1 => CollectiveKind::Bcast,
            2 => CollectiveKind::Reduce,
            3 => CollectiveKind::Allreduce,
            4 => CollectiveKind::Allgather,
            5 => CollectiveKind::Alltoall,
            6 => CollectiveKind::Gather,
            7 => CollectiveKind::Scatter,
            other => return Err(TraceDecodeError::BadTag(other)),
        }),
        other => return Err(TraceDecodeError::BadTag(other)),
    })
}

fn encode_event(e: &TraceEvent, out: &mut Vec<u8>) {
    let (k, c) = kind_tags(e.kind);
    out.extend_from_slice(&e.number.to_le_bytes()); // 8
    out.extend_from_slice(&e.t_post.to_le_bytes()); // 8
    out.extend_from_slice(&e.t_complete.to_le_bytes()); // 8
    out.push(k); // 1
    out.push(c); // 1
    out.push(u8::from(e.wildcard)); // 1 flags (bit 0: wildcard source)
    out.push(0); // 1 pad
    let peer: i32 = e.peer.map(|p| p as i32).unwrap_or(-1);
    out.extend_from_slice(&peer.to_le_bytes()); // 4
    out.extend_from_slice(&e.tag.to_le_bytes()); // 4
    out.extend_from_slice(&e.size.to_le_bytes()); // 8
    out.extend_from_slice(&e.involved.to_le_bytes()); // 4
    out.extend_from_slice(&e.msg_id.to_le_bytes()); // 8
    out.extend_from_slice(&e.comm_id.to_le_bytes()); // 8
}

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceDecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, TraceDecodeError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        // `take` guarantees the width, but the conversion stays a typed
        // error path: no decoder input may reach an unwrap.
        let b = self.take(4)?;
        b.try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }
    pub(crate) fn i32(&mut self) -> Result<i32, TraceDecodeError> {
        let b = self.take(4)?;
        b.try_into()
            .map(i32::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }
    pub(crate) fn u64(&mut self) -> Result<u64, TraceDecodeError> {
        let b = self.take(8)?;
        b.try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }
    pub(crate) fn f64(&mut self) -> Result<f64, TraceDecodeError> {
        let b = self.take(8)?;
        b.try_into()
            .map(f64::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }
}

pub(crate) fn decode_event(
    cur: &mut Cursor<'_>,
    process: u32,
) -> Result<TraceEvent, TraceDecodeError> {
    let number = cur.u64()?;
    let t_post = cur.f64()?;
    let t_complete = cur.f64()?;
    let k = cur.u8()?;
    let c = cur.u8()?;
    // Flags byte was a pad in older traces, which wrote it as zero, so
    // decoding them yields `wildcard: false` — exactly what they meant.
    let flags = cur.u8()?;
    cur.take(1)?; // pad
    let peer = cur.i32()?;
    let tag = cur.u32()?;
    let size = cur.u64()?;
    let involved = cur.u32()?;
    let msg_id = cur.u64()?;
    let comm_id = cur.u64()?;
    Ok(TraceEvent {
        number,
        process,
        t_post,
        t_complete,
        kind: kind_from_tags(k, c)?,
        peer: if peer < 0 { None } else { Some(peer as u32) },
        tag,
        size,
        involved,
        msg_id,
        comm_id,
        wildcard: flags & 1 != 0,
    })
}

/// Encode a trace into the binary format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(trace) as usize);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&trace.nprocs.to_le_bytes());
    out.extend_from_slice(&(trace.machine.len() as u32).to_le_bytes());
    out.extend_from_slice(trace.machine.as_bytes());
    for p in &trace.procs {
        out.extend_from_slice(&p.process.to_le_bytes());
        out.extend_from_slice(&(p.events.len() as u64).to_le_bytes());
        out.extend_from_slice(&p.end_time.to_le_bytes());
        for e in &p.events {
            encode_event(e, &mut out);
        }
    }
    out
}

/// The decoded file header.
pub(crate) struct Header {
    pub(crate) nprocs: u32,
    pub(crate) machine: String,
}

/// Parse the magic/version/nprocs/machine preamble, advancing `cur` to
/// the first per-process section.
pub(crate) fn decode_header(cur: &mut Cursor<'_>) -> Result<Header, TraceDecodeError> {
    if cur.take(8)? != MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(TraceDecodeError::BadVersion(version));
    }
    let nprocs = cur.u32()?;
    let mlen = cur.u32()? as usize;
    let machine = String::from_utf8_lossy(cur.take(mlen)?).into_owned();
    Ok(Header { nprocs, machine })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcessTrace;
    use crate::ingest::decode_recovering;

    /// The trace a clean buffer decodes to; its ingest is not degraded.
    fn decode(buf: &[u8]) -> Trace {
        let (trace, report) = decode_recovering(buf);
        assert!(!report.is_degraded(), "{}", report.render());
        trace.expect("a clean buffer decodes")
    }

    fn sample_trace() -> Trace {
        let mk = |number, kind, peer| TraceEvent {
            number,
            process: 0,
            t_post: number as f64,
            t_complete: number as f64 + 0.5,
            kind,
            peer,
            tag: 3,
            size: 1024,
            involved: if matches!(kind, EventKind::Coll(_)) {
                2
            } else {
                1
            },
            msg_id: number * 7,
            comm_id: if matches!(kind, EventKind::Coll(_)) {
                99
            } else {
                0
            },
            wildcard: kind == EventKind::Recv && number % 2 == 1,
        };
        Trace {
            nprocs: 2,
            machine: "cluster-A".into(),
            procs: vec![
                ProcessTrace {
                    process: 0,
                    events: vec![
                        mk(0, EventKind::Send, Some(1)),
                        mk(1, EventKind::Recv, Some(1)),
                        mk(2, EventKind::Coll(CollectiveKind::Allreduce), None),
                    ],
                    end_time: 3.0,
                },
                ProcessTrace {
                    process: 1,
                    events: vec![],
                    end_time: 0.0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample_trace();
        let buf = encode(&t);
        assert_eq!(decode(&buf), t);
    }

    #[test]
    fn encoded_size_matches_buffer() {
        let t = sample_trace();
        assert_eq!(encode(&t).len() as u64, encoded_size(&t));
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut buf = encode(&sample_trace());
        buf[8] = 99;
        let (trace, report) = decode_recovering(&buf);
        assert!(trace.is_none());
        assert_eq!(
            report.fatal.as_deref(),
            Some("unsupported trace version 99")
        );
    }

    #[test]
    fn all_coll_classes_roundtrip() {
        for (i, c) in [
            CollectiveKind::Barrier,
            CollectiveKind::Bcast,
            CollectiveKind::Reduce,
            CollectiveKind::Allreduce,
            CollectiveKind::Allgather,
            CollectiveKind::Alltoall,
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
        ]
        .into_iter()
        .enumerate()
        {
            let t = Trace {
                nprocs: 1,
                machine: String::new(),
                procs: vec![ProcessTrace {
                    process: 0,
                    events: vec![TraceEvent {
                        number: 0,
                        process: 0,
                        t_post: 0.0,
                        t_complete: 0.1,
                        kind: EventKind::Coll(c),
                        peer: None,
                        tag: 0,
                        size: i as u64,
                        involved: 1,
                        msg_id: 0,
                        comm_id: 7,
                        wildcard: false,
                    }],
                    end_time: 0.1,
                }],
            };
            assert_eq!(decode(&encode(&t)), t);
        }
    }
}
