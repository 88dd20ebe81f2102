//! Compressed trace encoding (related work: Noeth et al., ScalaTrace —
//! "a method to compress tracefiles while maintaining low overhead",
//! paper §2).
//!
//! PAS2P's own answer to tracefile pressure is phase extraction, but the
//! raw tracefiles still reach gigabytes (Table 3: 5.2 GB). This module
//! exploits the same repetitiveness the phases do, at the byte level:
//!
//! * event *shapes* (kind, peer, tag, size, involved, communicator) are
//!   dictionary-encoded — an iterative application has a handful of
//!   distinct shapes repeated thousands of times;
//! * timestamps are quantized to nanoseconds and delta-encoded as LEB128
//!   varints — consecutive events are microseconds apart, so deltas fit
//!   in 2–4 bytes instead of 16;
//! * message ids are delta-encoded against a per-process counter.
//!
//! Typical iterative traces compress 6–10×. Decompression is exact up to
//! the nanosecond quantization.

use crate::event::{ProcessTrace, Trace, TraceEvent};
use crate::format::TraceDecodeError;
use std::collections::HashMap;

/// Magic bytes of the compressed format.
pub const CMAGIC: &[u8; 8] = b"PAS2PTRZ";

const NS: f64 = 1e9;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let mut byte = (v & 0x7f) as u8;
        v >>= 7;
        if v != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if v == 0 {
            break;
        }
    }
}

fn put_signed(out: &mut Vec<u8>, v: i64) {
    // ZigZag encoding.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, TraceDecodeError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = *self.buf.get(self.pos).ok_or(TraceDecodeError::Truncated)?;
            self.pos += 1;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(TraceDecodeError::BadTag(byte));
            }
        }
    }

    fn signed(&mut self) -> Result<i64, TraceDecodeError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceDecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    // Fixed-width reads share `take`'s bound check; the conversions keep
    // a typed error path so no decoder input can reach an unwrap.
    fn u8(&mut self) -> Result<u8, TraceDecodeError> {
        self.take(1)?.first().copied().ok_or(TraceDecodeError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        self.take(4)?
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }

    fn u64(&mut self) -> Result<u64, TraceDecodeError> {
        self.take(8)?
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }

    fn f64(&mut self) -> Result<f64, TraceDecodeError> {
        self.take(8)?
            .try_into()
            .map(f64::from_le_bytes)
            .map_err(|_| TraceDecodeError::Truncated)
    }
}

/// The dictionary key: everything about an event except its times, number
/// and relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    kind: u8,
    coll: u8,
    peer: i64, // relative to the process, or i64::MIN for none
    tag: u32,
    size: u64,
    involved: u32,
    comm_id: u64,
    wildcard: bool,
}

fn shape_of(e: &TraceEvent) -> Shape {
    let (kind, coll) = crate::format::kind_tags_pub(e.kind);
    Shape {
        kind,
        coll,
        peer: e
            .peer
            .map(|p| p as i64 - e.process as i64)
            .unwrap_or(i64::MIN),
        tag: e.tag,
        size: e.size,
        involved: e.involved,
        comm_id: e.comm_id,
        wildcard: e.wildcard,
    }
}

/// Compress a trace.
pub fn compress(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CMAGIC);
    out.extend_from_slice(&trace.nprocs.to_le_bytes());
    out.extend_from_slice(&(trace.machine.len() as u32).to_le_bytes());
    out.extend_from_slice(trace.machine.as_bytes());

    // Global shape dictionary.
    let mut dict: Vec<Shape> = Vec::new();
    let mut index: HashMap<Shape, u64> = HashMap::new();
    for p in &trace.procs {
        for e in &p.events {
            let s = shape_of(e);
            index.entry(s).or_insert_with(|| {
                dict.push(s);
                dict.len() as u64 - 1
            });
        }
    }
    put_varint(&mut out, dict.len() as u64);
    for s in &dict {
        out.push(s.kind);
        out.push(s.coll);
        put_signed(&mut out, if s.peer == i64::MIN { i64::MIN + 1 } else { s.peer });
        out.push(u8::from(s.peer == i64::MIN) | (u8::from(s.wildcard) << 1));
        put_varint(&mut out, s.tag as u64);
        put_varint(&mut out, s.size);
        put_varint(&mut out, s.involved as u64);
        out.extend_from_slice(&s.comm_id.to_le_bytes());
    }

    for p in &trace.procs {
        put_varint(&mut out, p.process as u64);
        put_varint(&mut out, p.events.len() as u64);
        out.extend_from_slice(&p.end_time.to_le_bytes());
        let mut last_ns: i64 = 0;
        let mut last_msg: i64 = 0;
        for e in &p.events {
            let s = shape_of(e);
            put_varint(&mut out, index[&s]);
            let post_ns = (e.t_post * NS).round() as i64;
            let complete_ns = (e.t_complete * NS).round() as i64;
            put_signed(&mut out, post_ns - last_ns);
            put_signed(&mut out, complete_ns - post_ns);
            last_ns = complete_ns;
            put_signed(&mut out, e.msg_id as i64 - last_msg);
            last_msg = e.msg_id as i64;
        }
    }
    out
}

/// Decompress a buffer produced by [`compress`]. Timestamps come back
/// quantized to nanoseconds.
pub fn decompress(buf: &[u8]) -> Result<Trace, TraceDecodeError> {
    let mut r = Reader { buf, pos: 0 };
    if r.take(8)? != CMAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let nprocs = r.u32()?;
    let mlen = r.u32()? as usize;
    let machine = String::from_utf8_lossy(r.take(mlen)?).into_owned();

    let dict_len = r.varint()? as usize;
    if dict_len > buf.len() {
        return Err(TraceDecodeError::Truncated);
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let kind = r.u8()?;
        let coll = r.u8()?;
        let peer_raw = r.signed()?;
        let peer_flags = r.u8()?;
        let peer_none = peer_flags & 1 == 1;
        let wildcard = peer_flags & 2 == 2;
        let tag = r.varint()? as u32;
        let size = r.varint()?;
        let involved = r.varint()? as u32;
        let comm_id = r.u64()?;
        dict.push(Shape {
            kind,
            coll,
            peer: if peer_none { i64::MIN } else { peer_raw },
            tag,
            size,
            involved,
            comm_id,
            wildcard,
        });
    }

    // Like the counts below, a corrupted one must not drive allocation.
    if nprocs as usize > buf.len() {
        return Err(TraceDecodeError::Truncated);
    }
    let mut procs = Vec::with_capacity(nprocs as usize);
    for _ in 0..nprocs {
        let process = r.varint()? as u32;
        let count = r.varint()? as usize;
        if count > buf.len() {
            return Err(TraceDecodeError::Truncated);
        }
        let end_time = r.f64()?;
        let mut events = Vec::with_capacity(count);
        let mut last_ns: i64 = 0;
        let mut last_msg: i64 = 0;
        for number in 0..count {
            let sid = r.varint()? as usize;
            let s = dict.get(sid).ok_or(TraceDecodeError::BadTag(sid as u8))?;
            // Corrupted varints can decode to extreme deltas; overflow is
            // a decode error, not an arithmetic fault.
            let post_ns = last_ns
                .checked_add(r.signed()?)
                .ok_or(TraceDecodeError::Truncated)?;
            let complete_ns = post_ns
                .checked_add(r.signed()?)
                .ok_or(TraceDecodeError::Truncated)?;
            last_ns = complete_ns;
            let msg_id = last_msg
                .checked_add(r.signed()?)
                .ok_or(TraceDecodeError::Truncated)? as u64;
            last_msg = msg_id as i64;
            events.push(TraceEvent {
                number: number as u64,
                process,
                t_post: post_ns as f64 / NS,
                t_complete: complete_ns as f64 / NS,
                kind: crate::format::kind_from_tags_pub(s.kind, s.coll)?,
                peer: if s.peer == i64::MIN {
                    None
                } else {
                    Some((process as i64 + s.peer) as u32)
                },
                tag: s.tag,
                size: s.size,
                involved: s.involved,
                msg_id,
                comm_id: s.comm_id,
                wildcard: s.wildcard,
            });
        }
        procs.push(ProcessTrace {
            process,
            events,
            end_time,
        });
    }
    Ok(Trace {
        nprocs,
        machine,
        procs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::format;

    fn iterative_trace(iters: usize, procs: u32) -> Trace {
        let mk = |proc_id: u32| {
            let mut events = Vec::new();
            let mut t = 0.0;
            for i in 0..iters {
                t += 0.001;
                events.push(TraceEvent {
                    number: (2 * i) as u64,
                    process: proc_id,
                    t_post: t,
                    t_complete: t + 1e-5,
                    kind: EventKind::Send,
                    peer: Some((proc_id + 1) % procs),
                    tag: 1,
                    size: 4096,
                    involved: 1,
                    msg_id: (proc_id as u64) << 32 | i as u64,
                    comm_id: 0,
                    wildcard: false,
                });
                t += 0.0005;
                events.push(TraceEvent {
                    number: (2 * i + 1) as u64,
                    process: proc_id,
                    t_post: t,
                    t_complete: t + 2e-5,
                    kind: EventKind::Recv,
                    peer: Some((proc_id + procs - 1) % procs),
                    tag: 1,
                    size: 4096,
                    involved: 1,
                    msg_id: (((proc_id + procs - 1) % procs) as u64) << 32 | i as u64,
                    comm_id: 0,
                    wildcard: i % 3 == 0,
                });
            }
            ProcessTrace {
                process: proc_id,
                end_time: t,
                events,
            }
        };
        Trace {
            nprocs: procs,
            machine: "cluster-A".into(),
            procs: (0..procs).map(mk).collect(),
        }
    }

    #[test]
    fn roundtrip_up_to_time_quantization() {
        let t = iterative_trace(100, 4);
        let back = decompress(&compress(&t)).unwrap();
        assert_eq!(back.nprocs, t.nprocs);
        assert_eq!(back.machine, t.machine);
        for (a, b) in t.procs.iter().zip(&back.procs) {
            assert_eq!(a.events.len(), b.events.len());
            for (x, y) in a.events.iter().zip(&b.events) {
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.peer, y.peer);
                assert_eq!(x.size, y.size);
                assert_eq!(x.msg_id, y.msg_id);
                assert_eq!(x.comm_id, y.comm_id);
                assert_eq!(x.wildcard, y.wildcard);
                assert!((x.t_post - y.t_post).abs() < 1e-8);
                assert!((x.t_complete - y.t_complete).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn iterative_traces_compress_well() {
        let t = iterative_trace(2000, 8);
        let raw = format::encode(&t).len();
        let packed = compress(&t).len();
        let ratio = raw as f64 / packed as f64;
        assert!(ratio > 4.0, "compression ratio only {:.1}x", ratio);
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(decompress(b"not a trace").is_err());
        let mut buf = compress(&iterative_trace(5, 2));
        buf.truncate(buf.len() / 2);
        assert!(decompress(&buf).is_err());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace {
            nprocs: 2,
            machine: String::new(),
            procs: vec![
                ProcessTrace { process: 0, events: vec![], end_time: 0.0 },
                ProcessTrace { process: 1, events: vec![], end_time: 0.0 },
            ],
        };
        let back = decompress(&compress(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn varint_roundtrips_extremes() {
        for v in [0u64, 1, 127, 128, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader { buf: &out, pos: 0 };
            assert_eq!(r.varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN + 1, i64::MAX] {
            let mut out = Vec::new();
            put_signed(&mut out, v);
            let mut r = Reader { buf: &out, pos: 0 };
            assert_eq!(r.signed().unwrap(), v);
        }
    }
}
