//! Newline framing over chunked byte streams.
//!
//! Coreutils operators are line-oriented but streams are chunk-oriented;
//! [`LineBuffer`] converts between the two incrementally. A line that lies
//! inside one chunk comes back as a view of that chunk (no copy); only a
//! line that straddles chunks is copied, through a carry buffer that never
//! holds more than one partial line. Every byte is scanned once.

use crate::stream::ByteStream;
use bytes::Bytes;
use std::io;

/// Incremental newline framer.
///
/// Push chunks with [`LineBuffer::push_chunk`], pop complete lines
/// (including the trailing `\n`) with [`LineBuffer::next_line`], and flush
/// any final unterminated line with [`LineBuffer::take_rest`]. A returned
/// line keeps its chunk's storage alive.
#[derive(Default)]
pub struct LineBuffer {
    /// The chunk being framed; bytes before `pos` are already returned.
    chunk: Bytes,
    pos: usize,
    /// `chunk[pos..]` was scanned and holds no newline.
    tail_scanned: bool,
    /// Start of a line begun in earlier chunks. Never holds a `\n`.
    carry: Vec<u8>,
}

impl LineBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        LineBuffer::default()
    }

    /// Appends a chunk, sharing its storage.
    pub fn push_chunk(&mut self, chunk: Bytes) {
        let tail = &self.chunk[self.pos..];
        if self.tail_scanned {
            // The tail starts a line that straddles into `chunk`.
            self.carry.extend_from_slice(tail);
            self.chunk = chunk;
        } else if tail.is_empty() {
            self.chunk = chunk;
        } else {
            // Pushed again before draining: frame the unread tail and the
            // new chunk as one.
            let mut joined = Vec::with_capacity(tail.len() + chunk.len());
            joined.extend_from_slice(tail);
            joined.extend_from_slice(&chunk);
            self.chunk = Bytes::from(joined);
        }
        self.pos = 0;
        self.tail_scanned = false;
    }

    /// Appends a borrowed chunk (copied once into shared storage).
    pub fn push(&mut self, chunk: &[u8]) {
        self.push_chunk(Bytes::copy_from_slice(chunk));
    }

    /// Pops the next complete line (including `\n`), if one is buffered.
    pub fn next_line(&mut self) -> Option<Bytes> {
        if self.tail_scanned {
            return None;
        }
        let Some(i) = self.chunk[self.pos..].iter().position(|&b| b == b'\n') else {
            self.tail_scanned = true;
            return None;
        };
        let end = self.pos + i + 1;
        let line = if self.carry.is_empty() {
            self.chunk.slice(self.pos..end)
        } else {
            self.carry.extend_from_slice(&self.chunk[self.pos..end]);
            self.take_carry()
        };
        self.pos = end;
        Some(line)
    }

    /// Returns the final unterminated line, if any, consuming it.
    pub fn take_rest(&mut self) -> Option<Bytes> {
        let rest = std::mem::take(&mut self.chunk).slice(self.pos..);
        self.pos = 0;
        self.tail_scanned = false;
        if self.carry.is_empty() {
            return (!rest.is_empty()).then_some(rest);
        }
        self.carry.extend_from_slice(&rest);
        Some(self.take_carry())
    }

    /// Copies the carried line out, keeping the carry's capacity.
    fn take_carry(&mut self) -> Bytes {
        let line = Bytes::copy_from_slice(&self.carry);
        self.carry.clear();
        line
    }
}

/// Splits a byte slice into lines (without trailing `\n`).
pub fn split_lines(data: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            out.push(&data[start..i]);
            start = i + 1;
        }
    }
    if start < data.len() {
        out.push(&data[start..]);
    }
    out
}

/// Calls `f` for every line of `stream` (lines include the trailing `\n`
/// except possibly the last). Stops early if `f` returns `Ok(false)`.
pub fn for_each_line(
    stream: &mut dyn ByteStream,
    mut f: impl FnMut(&[u8]) -> io::Result<bool>,
) -> io::Result<()> {
    let mut lb = LineBuffer::new();
    while let Some(chunk) = stream.next_chunk()? {
        lb.push_chunk(chunk);
        while let Some(line) = lb.next_line() {
            if !f(&line)? {
                return Ok(());
            }
        }
    }
    if let Some(rest) = lb.take_rest() {
        f(&rest)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MemStream;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn frames_lines_across_chunks() {
        let mut lb = LineBuffer::new();
        lb.push(b"hel");
        assert!(lb.next_line().is_none());
        lb.push(b"lo\nwor");
        assert_eq!(lb.next_line().unwrap(), Bytes::from_static(b"hello\n"));
        assert!(lb.next_line().is_none());
        lb.push(b"ld");
        assert_eq!(lb.take_rest().unwrap(), Bytes::from_static(b"world"));
    }

    #[test]
    fn split_lines_handles_edges() {
        assert_eq!(split_lines(b""), Vec::<&[u8]>::new());
        assert_eq!(split_lines(b"a"), vec![b"a" as &[u8]]);
        assert_eq!(split_lines(b"a\n"), vec![b"a" as &[u8]]);
        assert_eq!(split_lines(b"a\nb"), vec![b"a" as &[u8], b"b"]);
        assert_eq!(split_lines(b"\n\n"), vec![b"" as &[u8], b""]);
    }

    #[test]
    fn for_each_line_iterates_all() {
        let mut s = MemStream::from_chunks(vec![
            Bytes::from_static(b"one\ntw"),
            Bytes::from_static(b"o\nthree"),
        ]);
        let mut lines = Vec::new();
        for_each_line(&mut s, |l| {
            lines.push(String::from_utf8_lossy(l).into_owned());
            Ok(true)
        })
        .unwrap();
        assert_eq!(lines, vec!["one\n", "two\n", "three"]);
    }

    #[test]
    fn for_each_line_early_stop() {
        let mut s = MemStream::from_bytes("1\n2\n3\n");
        let mut n = 0;
        for_each_line(&mut s, |_| {
            n += 1;
            Ok(n < 2)
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    /// Seeded inputs: short, empty and long lines, with and without a
    /// trailing newline.
    fn seeded_input(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..rng.random_range(0..40usize) {
            let len = match rng.random_range(0..10u32) {
                0 => 0,
                1 => rng.random_range(64..200usize),
                _ => rng.random_range(1..12usize),
            };
            data.extend(
                (0..len)
                    .map(|_| rng.next_u64() as u8)
                    .filter(|&b| b != b'\n'),
            );
            data.push(b'\n');
        }
        if rng.random_range(0..2u32) == 0 {
            data.extend_from_slice(b"no newline");
        }
        data
    }

    /// Frames `chunks` (each its own allocation). Checks that every line
    /// lying wholly inside one chunk is a view of that chunk, and returns
    /// the lines.
    fn frame_checked(chunks: &[&[u8]]) -> Vec<Bytes> {
        let mut lb = LineBuffer::new();
        let mut lines = Vec::new();
        let mut offset = 0;
        let mut check = |line: Bytes, chunk: &Bytes, chunk_start: usize, offset: &mut usize| {
            let line_start = *offset;
            *offset += line.len();
            if line_start >= chunk_start {
                let range = chunk.as_ptr_range();
                let (lo, hi) = (line.as_ptr(), line.as_ptr().wrapping_add(line.len()));
                assert!(
                    lo >= range.start && hi <= range.end,
                    "line at {line_start} inside one chunk was copied"
                );
            }
            lines.push(line);
        };
        let mut chunk = Bytes::new();
        let mut chunk_start = 0;
        for (i, c) in chunks.iter().enumerate() {
            chunk = Bytes::copy_from_slice(c);
            chunk_start = chunks[..i].iter().map(|c| c.len()).sum();
            lb.push_chunk(chunk.clone());
            while let Some(line) = lb.next_line() {
                check(line, &chunk, chunk_start, &mut offset);
            }
        }
        if let Some(rest) = lb.take_rest() {
            check(rest, &chunk, chunk_start, &mut offset);
        }
        lines
    }

    fn chomped(lines: &[Bytes]) -> Vec<&[u8]> {
        lines
            .iter()
            .map(|l| l.strip_suffix(b"\n").unwrap_or(l))
            .collect()
    }

    #[test]
    fn framing_is_independent_of_chunking() {
        for seed in 0..300 {
            let data = seeded_input(seed);
            let expected = split_lines(&data);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut cuts: Vec<usize> = (0..rng.random_range(0..8usize))
                .map(|_| rng.random_range(0..data.len() + 1))
                .collect();
            cuts.sort_unstable();
            cuts.push(data.len());
            let mut random = Vec::new();
            let mut from = 0;
            for cut in cuts {
                random.push(&data[from..cut]);
                from = cut;
            }
            let ways: [Vec<&[u8]>; 3] = [vec![&data], data.chunks(1).collect(), random];
            for chunks in ways {
                let lines = frame_checked(&chunks);
                assert_eq!(
                    lines
                        .iter()
                        .flat_map(|l| l.iter().copied())
                        .collect::<Vec<u8>>(),
                    data,
                    "seed {seed}"
                );
                assert_eq!(chomped(&lines), expected, "seed {seed}");
            }
        }
    }

    #[test]
    fn a_line_longer_than_a_chunk_is_carried_whole() {
        let long = vec![b'x'; 1000];
        let mut data = b"a\n".to_vec();
        data.extend_from_slice(&long);
        data.extend_from_slice(b"\n\nb");
        let lines = frame_checked(&data.chunks(64).collect::<Vec<_>>());
        assert_eq!(chomped(&lines), vec![b"a" as &[u8], &long, b"", b"b"]);
    }

    #[test]
    fn pushing_before_draining_keeps_every_line() {
        let mut lb = LineBuffer::new();
        lb.push(b"a\nb");
        lb.push(b"c\nd");
        assert_eq!(lb.next_line().unwrap(), Bytes::from_static(b"a\n"));
        assert_eq!(lb.next_line().unwrap(), Bytes::from_static(b"bc\n"));
        assert!(lb.next_line().is_none());
        assert_eq!(lb.take_rest().unwrap(), Bytes::from_static(b"d"));
        assert!(lb.take_rest().is_none());
    }
}
