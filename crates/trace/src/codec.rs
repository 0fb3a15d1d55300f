//! Trace serialization: a compact binary format and a line-oriented text
//! format.
//!
//! Both formats carry exactly the fields of [`TraceRecord`]. The binary
//! format is the working format (a few bytes per reference); the text format
//! exists for inspection, diffing and hand-written test inputs. The chunked
//! v2 format for corpus-scale streaming lives in [`crate::chunk`].
//!
//! # Binary format (v1, flat)
//!
//! ```text
//! magic   4 bytes  "DCCT"
//! version 1 byte   0x01
//! records repeated:
//!   flags   u8
//!   kind    u8        0=I 1=R 2=W
//!   cpu     u16 LE
//!   pid     u16 LE
//!   addr    LEB128    unsigned, up to 10 bytes
//! ```
//!
//! # Text format
//!
//! One record per line: `cpu pid K addr flags-bits`, e.g. `0 3 R 0x1230 1`.
//! Lines beginning with `#` and blank lines are ignored.

use crate::record::{RecordFlags, TraceRecord};
use dircc_types::{AccessKind, Address, CpuId, ProcessId};
use std::io::{self, BufRead, Read, Write};

/// Magic bytes at the start of a binary trace.
pub const MAGIC: [u8; 4] = *b"DCCT";
/// Current binary format version.
pub const VERSION: u8 = 1;

pub(crate) fn kind_to_byte(k: AccessKind) -> u8 {
    match k {
        AccessKind::InstrFetch => 0,
        AccessKind::Read => 1,
        AccessKind::Write => 2,
    }
}

pub(crate) fn kind_from_byte(b: u8) -> Option<AccessKind> {
    match b {
        0 => Some(AccessKind::InstrFetch),
        1 => Some(AccessKind::Read),
        2 => Some(AccessKind::Write),
        _ => None,
    }
}

/// Writes `v` in the canonical (minimal-length) LEB128 encoding.
pub(crate) fn write_leb128<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads an unsigned LEB128 value.
///
/// The writer always emits the canonical minimal encoding; the reader is
/// permissive about redundant zero padding *within* the 10 bytes a u64 can
/// occupy, but rejects anything that cannot denote a u64: a 10th byte with
/// payload bits above bit 63 ("overflows u64") or with its continuation
/// bit still set ("continues past 10 bytes").
pub(crate) fn read_leb128<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let byte = buf[0];
        if shift == 63 {
            // The 10th byte holds only bit 63: payload must be 0 or 1 and
            // the encoding cannot continue. Report the two failure modes
            // distinctly — a continuation bit here is a length violation,
            // not an overflow.
            if byte & 0x7f > 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "LEB128 value overflows u64",
                ));
            }
            if byte & 0x80 != 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "LEB128 encoding continues past 10 bytes",
                ));
            }
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Streaming writer for the binary trace format.
///
/// The header is written lazily on the first record (or explicitly via
/// [`BinaryWriter::finish`] for an empty trace). Generic writers can be
/// passed by `&mut` reference as usual for `W: Write` APIs.
///
/// ```
/// # use dircc_trace::codec::{BinaryWriter, BinaryReader};
/// # use dircc_trace::TraceRecord;
/// # use dircc_types::{AccessKind, Address, CpuId, ProcessId};
/// # fn main() -> std::io::Result<()> {
/// let mut buf = Vec::new();
/// let mut w = BinaryWriter::new(&mut buf);
/// let r = TraceRecord::new(CpuId::new(0), ProcessId::new(1), AccessKind::Read, Address::new(0x40));
/// w.write(&r)?;
/// w.finish()?;
/// let got: Vec<_> = BinaryReader::new(&buf[..])?.collect::<Result<_, _>>()?;
/// assert_eq!(got, vec![r]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BinaryWriter<W: Write> {
    inner: W,
    header_written: bool,
    records: u64,
}

impl<W: Write> BinaryWriter<W> {
    /// Creates a writer over any byte sink.
    pub fn new(inner: W) -> Self {
        BinaryWriter { inner, header_written: false, records: 0 }
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            self.inner.write_all(&MAGIC)?;
            self.inner.write_all(&[VERSION])?;
            self.header_written = true;
        }
        Ok(())
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.ensure_header()?;
        self.inner.write_all(&[r.flags.bits(), kind_to_byte(r.kind)])?;
        self.inner.write_all(&r.cpu.raw().to_le_bytes())?;
        self.inner.write_all(&r.pid.raw().to_le_bytes())?;
        write_leb128(&mut self.inner, r.addr.raw())?;
        self.records += 1;
        Ok(())
    }

    /// Appends every record from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<'a, I: IntoIterator<Item = &'a TraceRecord>>(
        &mut self,
        records: I,
    ) -> io::Result<()> {
        for r in records {
            self.write(r)?;
        }
        Ok(())
    }

    /// Returns the number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer, writing the header first
    /// if no record ever was (so even empty traces are well-formed).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.ensure_header()?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming reader for the binary trace format.
///
/// Iterates `io::Result<TraceRecord>`; ends cleanly at EOF on a record
/// boundary and reports `UnexpectedEof` for truncated records.
#[derive(Debug)]
pub struct BinaryReader<R: Read> {
    inner: R,
}

impl<R: Read> BinaryReader<R> {
    /// Creates a reader, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the magic or version is wrong, and
    /// propagates I/O errors.
    pub fn new(mut inner: R) -> io::Result<Self> {
        let mut header = [0u8; 5];
        inner.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a dircc binary trace"));
        }
        if header[4] != VERSION {
            let hint = if header[4] == crate::chunk::VERSION_V2 {
                " (a chunked v2 trace: replay it with `dircc replay --in` or read it \
                 with ChunkedReader)"
            } else {
                ""
            };
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {}{hint}", header[4]),
            ));
        }
        Ok(BinaryReader { inner })
    }

    /// Creates a reader positioned just past an already-consumed v1 header
    /// (used by [`crate::chunk::open_trace`] after sniffing the version).
    pub(crate) fn from_body(inner: R) -> Self {
        BinaryReader { inner }
    }

    fn read_record(&mut self) -> io::Result<Option<TraceRecord>> {
        // A record boundary is the one place EOF is clean, so the first
        // byte cannot use read_exact (whose EOF is an error). A bare
        // read() is not enough either: it may legitimately be interrupted,
        // and only Ok(0) means end-of-stream.
        let first = loop {
            let mut first = [0u8; 1];
            match self.inner.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break first[0],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        let flags = RecordFlags::from_bits_checked(first).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("unknown flag bits {first:#04x}"))
        })?;
        let mut rest = [0u8; 5];
        self.inner.read_exact(&mut rest)?;
        let kind = kind_from_byte(rest[0])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad access kind byte"))?;
        let cpu = CpuId::new(u16::from_le_bytes([rest[1], rest[2]]));
        let pid = ProcessId::new(u16::from_le_bytes([rest[3], rest[4]]));
        let addr = Address::new(read_leb128(&mut self.inner)?);
        Ok(Some(TraceRecord { cpu, pid, kind, addr, flags }))
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<io::Result<TraceRecord>> {
        self.read_record().transpose()
    }
}

/// Writes records in the text format, one per line.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_text<'a, W: Write, I: IntoIterator<Item = &'a TraceRecord>>(
    mut w: W,
    records: I,
) -> io::Result<()> {
    for r in records {
        writeln!(
            w,
            "{} {} {} {:#x} {}",
            r.cpu.raw(),
            r.pid.raw(),
            r.kind.code(),
            r.addr,
            r.flags.bits()
        )?;
    }
    Ok(())
}

/// Parses the text format from any buffered reader.
///
/// # Errors
///
/// Returns `InvalidData` with a line number on malformed input; propagates
/// I/O errors.
pub fn read_text<R: BufRead>(r: R) -> io::Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_text_line(line).map_err(|msg| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {}", lineno + 1, msg))
        })?);
    }
    Ok(out)
}

fn parse_text_line(line: &str) -> Result<TraceRecord, String> {
    let mut it = line.split_whitespace();
    let mut field = |name: &str| it.next().ok_or_else(|| format!("missing field {name}"));
    let cpu: u16 = field("cpu")?.parse().map_err(|e| format!("cpu: {e}"))?;
    let pid: u16 = field("pid")?.parse().map_err(|e| format!("pid: {e}"))?;
    let kind_s = field("kind")?;
    let kind = kind_s
        .chars()
        .next()
        .and_then(AccessKind::from_code)
        .filter(|_| kind_s.len() == 1)
        .ok_or_else(|| format!("bad kind {kind_s:?}"))?;
    let addr_s = field("addr")?;
    let addr = if let Some(hex) = addr_s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("addr: {e}"))?
    } else {
        addr_s.parse().map_err(|e| format!("addr: {e}"))?
    };
    let flag_bits: u8 = match it.next() {
        Some(f) => f.parse().map_err(|e| format!("flags: {e}"))?,
        None => 0,
    };
    let flags = RecordFlags::from_bits_checked(flag_bits)
        .ok_or_else(|| format!("flags: unknown flag bits {flag_bits:#04x}"))?;
    if it.next().is_some() {
        return Err("trailing fields".to_string());
    }
    Ok(TraceRecord {
        cpu: CpuId::new(cpu),
        pid: ProcessId::new(pid),
        kind,
        addr: Address::new(addr),
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(0),
                AccessKind::InstrFetch,
                Address::new(0),
            ),
            TraceRecord::new(
                CpuId::new(1),
                ProcessId::new(9),
                AccessKind::Read,
                Address::new(0x1234),
            )
            .with_flags(RecordFlags::LOCK),
            TraceRecord::new(
                CpuId::new(3),
                ProcessId::new(2),
                AccessKind::Write,
                Address::new(u64::MAX),
            )
            .with_flags(RecordFlags::SYSTEM),
        ]
    }

    #[test]
    fn binary_round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write_all(&recs).unwrap();
        assert_eq!(w.records_written(), 3);
        w.finish().unwrap();
        let got: Vec<_> = BinaryReader::new(&buf[..]).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(got, recs);
    }

    #[test]
    fn empty_binary_trace_is_well_formed() {
        let buf = BinaryWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(buf.len(), 5);
        assert_eq!(BinaryReader::new(&buf[..]).unwrap().count(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = BinaryReader::new(&b"NOPE\x01"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let err = BinaryReader::new(&b"DCCT\x63"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_record_reports_eof() {
        let recs = sample();
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write_all(&recs).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 1);
        let result: Result<Vec<_>, _> = BinaryReader::new(&buf[..]).unwrap().collect();
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn text_round_trip() {
        let recs = sample();
        let mut buf = Vec::new();
        write_text(&mut buf, &recs).unwrap();
        let got = read_text(&buf[..]).unwrap();
        assert_eq!(got, recs);
    }

    #[test]
    fn text_accepts_comments_and_default_flags() {
        let input = "# a comment\n\n0 1 R 64\n";
        let got = read_text(input.as_bytes()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].addr, Address::new(64));
        assert_eq!(got[0].flags, RecordFlags::NONE);
    }

    #[test]
    fn text_rejects_malformed_lines() {
        for bad in ["0 1 Z 0x10 0", "0 1 R", "0 1 R 0x10 0 extra", "x 1 R 0x10"] {
            let err = read_text(bad.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "input {bad:?}");
        }
    }

    #[test]
    fn leb128_extremes() {
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let mut buf = Vec::new();
            write_leb128(&mut buf, v).unwrap();
            assert_eq!(read_leb128(&mut &buf[..]).unwrap(), v);
        }
    }

    #[test]
    fn leb128_round_trips_every_shift_boundary() {
        // Values straddling each 7-bit group boundary: 2^(7k) - 1 and
        // 2^(7k), where the encoded length changes.
        for k in 1..10u32 {
            let boundary = 1u64 << (7 * k);
            for v in [boundary - 1, boundary, u64::MAX >> 1, (u64::MAX >> 1) + 1] {
                let mut buf = Vec::new();
                write_leb128(&mut buf, v).unwrap();
                assert!(buf.len() <= 10);
                assert_eq!(read_leb128(&mut &buf[..]).unwrap(), v, "value {v:#x}");
            }
        }
        // Canonical u64::MAX is exactly 10 bytes, last byte 0x01.
        let mut buf = Vec::new();
        write_leb128(&mut buf, u64::MAX).unwrap();
        assert_eq!(buf.len(), 10);
        assert_eq!(buf[9], 0x01);
        // Canonical 0 is a single zero byte.
        let mut buf = Vec::new();
        write_leb128(&mut buf, 0).unwrap();
        assert_eq!(buf, [0x00]);
    }

    #[test]
    fn leb128_overflow_rejected() {
        // 10th byte with payload above bit 63: a true overflow.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        let err = read_leb128(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflows"), "got {err}");
    }

    #[test]
    fn leb128_overlong_continuation_rejected_distinctly() {
        // A continuation bit on the 10th byte is a length violation and
        // must not be misreported as an overflow — even for the padding
        // byte 0x80 whose payload is zero.
        for tenth in [0x80u8, 0x81] {
            let mut buf = vec![0x80u8; 9];
            buf.push(tenth);
            buf.push(0x00);
            let err = read_leb128(&mut &buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("continues past 10 bytes"), "got {err}");
        }
    }

    #[test]
    fn leb128_accepts_redundant_padding_within_bounds() {
        // Permissive decode: zero padding inside the 10-byte window is
        // decodable even though the writer never emits it.
        assert_eq!(read_leb128(&mut &[0x80u8, 0x00][..]).unwrap(), 0);
        assert_eq!(read_leb128(&mut &[0xc0u8, 0x00][..]).unwrap(), 0x40);
    }

    /// A reader that yields one byte at a time, interposing a spurious
    /// `Interrupted` error before every byte — what a signal-heavy
    /// environment can do to a real file descriptor.
    struct Interrupting<'a> {
        data: &'a [u8],
        ready: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            self.ready = false;
            if self.data.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[0];
            self.data = &self.data[1..];
            Ok(1)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let recs = sample();
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write_all(&recs).unwrap();
        w.finish().unwrap();
        // read_exact retries Interrupted for the header and fixed fields;
        // the record-boundary first byte must do the same rather than
        // surfacing the error (or worse, mistaking a retry for EOF).
        let r = BinaryReader::new(Interrupting { data: &buf, ready: false }).unwrap();
        let got: Vec<_> = r.collect::<Result<_, _>>().unwrap();
        assert_eq!(got, recs);
    }

    #[test]
    fn truncation_at_every_field_boundary_reports_eof() {
        // One record: flags, kind, cpu(2), pid(2), addr LEB128. Cutting the
        // stream after any strict prefix of the record must yield
        // UnexpectedEof — never a garbage record or a silent clean EOF of
        // a partially-consumed record.
        let rec = TraceRecord::new(
            CpuId::new(7),
            ProcessId::new(260),
            AccessKind::Write,
            Address::new(0x1234_5678),
        )
        .with_flags(RecordFlags::LOCK);
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write(&rec).unwrap();
        w.finish().unwrap();
        for cut in 6..buf.len() {
            let result: Result<Vec<_>, _> = BinaryReader::new(&buf[..cut]).unwrap().collect();
            assert_eq!(
                result.unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "cut at byte {cut} of {}",
                buf.len()
            );
        }
        // Cutting exactly at the record boundary is a clean EOF.
        let got: Vec<_> = BinaryReader::new(&buf[..]).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(got, vec![rec]);
    }

    #[test]
    fn unknown_flag_bits_rejected_on_binary_path() {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write(&sample()[0]).unwrap();
        w.finish().unwrap();
        buf[5] = 0x84; // flags byte of the first record: undefined bits set
        let err = BinaryReader::new(&buf[..]).unwrap().next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown flag bits"), "got {err}");
    }

    #[test]
    fn unknown_flag_bits_rejected_in_text_with_line_number() {
        let err = read_text("0 1 R 0x40 1\n0 1 W 0x80 9\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 2") && msg.contains("unknown flag bits"), "got {msg}");
    }

    #[test]
    fn v2_trace_rejected_by_v1_reader_with_hint() {
        let err = BinaryReader::new(&b"DCCT\x02"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("dircc replay --in"), "hint should name a converter: {msg}");
    }
}
