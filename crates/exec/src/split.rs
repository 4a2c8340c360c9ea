//! Input splitters.
//!
//! Two strategies, chosen by the optimizer:
//!
//! * **contiguous** — branch *i* receives the *i*-th contiguous byte range
//!   of the input (cut at line boundaries). Order-preserving: required
//!   whenever the downstream aggregator is order-sensitive (concat,
//!   uniq/squeeze boundaries). Needs a size estimate, which the Jash JIT
//!   has by construction (it stats the input files at optimization time —
//!   the paper's core argument for running the compiler late).
//! * **round-robin** — blocks of lines dealt to branches cyclically.
//!   Streams without any size knowledge, but is only sound for
//!   order-insensitive aggregators (merge-sort with a total order, sums).

use bytes::Bytes;
use jash_io::{ByteStream, LineBuffer, Sink};
use std::io;

/// Lines per round-robin block.
pub const DEFAULT_BLOCK_LINES: usize = 4096;

/// Distributes contiguous ranges: branch `i` gets roughly `targets[i]`
/// bytes, extended to the next line boundary. Each branch's writer is
/// finished (closed) before the next branch starts, so downstream stages
/// see EOF as early as possible.
/// Pending bytes are coalesced into chunks of this size before they hit a
/// sink, so downstream writers (pipes, and especially disk-charged files
/// in buffered mode) see file-sized requests rather than one per line.
const COALESCE_BYTES: usize = 128 * 1024;

pub fn split_contiguous(
    input: &mut dyn ByteStream,
    outputs: &mut [Box<dyn Sink>],
    targets: &[u64],
) -> io::Result<()> {
    debug_assert_eq!(outputs.len(), targets.len());
    let mut branch = 0usize;
    let mut sent: u64 = 0;
    let mut lb = LineBuffer::new();
    let mut pending: Vec<u8> = Vec::with_capacity(COALESCE_BYTES);

    fn flush(
        outputs: &mut [Box<dyn Sink>],
        branch: usize,
        pending: &mut Vec<u8>,
    ) -> io::Result<()> {
        if !pending.is_empty() {
            outputs[branch].write_chunk(Bytes::from(std::mem::take(pending)))?;
        }
        Ok(())
    }

    let emit = |outputs: &mut [Box<dyn Sink>],
                    branch: &mut usize,
                    sent: &mut u64,
                    pending: &mut Vec<u8>,
                    line: Bytes|
     -> io::Result<()> {
        // Advance to the next branch once the current one met its target
        // (never beyond the last branch: it takes the remainder).
        while *branch + 1 < outputs.len() && *sent >= targets[*branch] {
            flush(outputs, *branch, pending)?;
            outputs[*branch].finish()?;
            *branch += 1;
            *sent = 0;
        }
        *sent += line.len() as u64;
        pending.extend_from_slice(&line);
        if pending.len() >= COALESCE_BYTES {
            flush(outputs, *branch, pending)?;
        }
        Ok(())
    };

    while let Some(chunk) = input.next_chunk()? {
        lb.push_chunk(chunk);
        while let Some(line) = lb.next_line() {
            emit(outputs, &mut branch, &mut sent, &mut pending, line)?;
        }
    }
    if let Some(rest) = lb.take_rest() {
        emit(outputs, &mut branch, &mut sent, &mut pending, rest)?;
    }
    flush(outputs, branch, &mut pending)?;
    for out in outputs[branch..].iter_mut() {
        out.finish()?;
    }
    Ok(())
}

/// Deals blocks of `block_lines` lines to branches cyclically.
pub fn split_round_robin(
    input: &mut dyn ByteStream,
    outputs: &mut [Box<dyn Sink>],
    block_lines: usize,
) -> io::Result<()> {
    let width = outputs.len();
    let mut lb = LineBuffer::new();
    let mut branch = 0usize;
    let mut in_block = 0usize;
    let mut pending: Vec<u8> = Vec::new();

    let flush = |outputs: &mut [Box<dyn Sink>],
                     branch: &mut usize,
                     pending: &mut Vec<u8>|
     -> io::Result<()> {
        if !pending.is_empty() {
            outputs[*branch].write_chunk(Bytes::from(std::mem::take(pending)))?;
        }
        *branch = (*branch + 1) % width;
        Ok(())
    };

    while let Some(chunk) = input.next_chunk()? {
        lb.push_chunk(chunk);
        while let Some(line) = lb.next_line() {
            pending.extend_from_slice(&line);
            in_block += 1;
            if in_block >= block_lines {
                flush(outputs, &mut branch, &mut pending)?;
                in_block = 0;
            }
        }
    }
    if let Some(rest) = lb.take_rest() {
        pending.extend_from_slice(&rest);
    }
    if !pending.is_empty() {
        flush(outputs, &mut branch, &mut pending)?;
    }
    for out in outputs.iter_mut() {
        out.finish()?;
    }
    Ok(())
}

/// Balanced byte targets for `total` bytes over `width` branches.
pub fn balanced_targets(total: u64, width: usize) -> Vec<u64> {
    let base = total / width as u64;
    let mut v = vec![base; width];
    // Distribute the remainder over the leading branches.
    let rem = (total % width as u64) as usize;
    for t in v.iter_mut().take(rem) {
        *t += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use jash_io::MemStream;

    fn contig(input: &str, targets: &[u64]) -> Vec<String> {
        let shared: Vec<std::sync::Arc<parking_lot::Mutex<Vec<u8>>>> =
            targets.iter().map(|_| Default::default()).collect();
        struct S(std::sync::Arc<parking_lot::Mutex<Vec<u8>>>);
        impl Sink for S {
            fn write_chunk(&mut self, c: Bytes) -> io::Result<()> {
                self.0.lock().extend_from_slice(&c);
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sinks: Vec<Box<dyn Sink>> = shared
            .iter()
            .map(|c| Box::new(S(c.clone())) as Box<dyn Sink>)
            .collect();
        let mut src = MemStream::from_bytes(input.to_string());
        split_contiguous(&mut src, &mut sinks, targets).unwrap();
        shared
            .iter()
            .map(|c| String::from_utf8(c.lock().clone()).unwrap())
            .collect()
    }

    fn rr(input: &str, width: usize, block: usize) -> Vec<String> {
        let shared: Vec<std::sync::Arc<parking_lot::Mutex<Vec<u8>>>> =
            (0..width).map(|_| Default::default()).collect();
        struct S(std::sync::Arc<parking_lot::Mutex<Vec<u8>>>);
        impl Sink for S {
            fn write_chunk(&mut self, c: Bytes) -> io::Result<()> {
                self.0.lock().extend_from_slice(&c);
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sinks: Vec<Box<dyn Sink>> = shared
            .iter()
            .map(|c| Box::new(S(c.clone())) as Box<dyn Sink>)
            .collect();
        let mut src = MemStream::from_bytes(input.to_string());
        split_round_robin(&mut src, &mut sinks, block).unwrap();
        shared
            .iter()
            .map(|c| String::from_utf8(c.lock().clone()).unwrap())
            .collect()
    }

    #[test]
    fn contiguous_preserves_concat() {
        let input = "a\nbb\nccc\ndddd\neeeee\n";
        let parts = contig(input, &balanced_targets(input.len() as u64, 3));
        assert_eq!(parts.concat(), input);
        // Cuts are at line boundaries.
        for p in &parts {
            assert!(p.is_empty() || p.ends_with('\n'), "{p:?}");
        }
        assert!(parts.iter().filter(|p| !p.is_empty()).count() >= 2);
    }

    #[test]
    fn contiguous_handles_no_trailing_newline() {
        let input = "a\nb\nc";
        let parts = contig(input, &balanced_targets(input.len() as u64, 2));
        assert_eq!(parts.concat(), input);
    }

    #[test]
    fn contiguous_tiny_input_goes_to_first_branches() {
        let parts = contig("x\n", &balanced_targets(2, 4));
        assert_eq!(parts.concat(), "x\n");
    }

    #[test]
    fn round_robin_covers_everything() {
        let input: String = (0..100).map(|i| format!("{i}\n")).collect();
        let parts = rr(&input, 3, 10);
        let mut all: Vec<&str> = parts.iter().flat_map(|p| p.lines()).collect();
        all.sort_by_key(|s| s.parse::<u64>().unwrap());
        assert_eq!(all.len(), 100);
        // Blocks of 10 dealt cyclically: branch 0 gets lines 0-9, 30-39...
        assert!(parts[0].starts_with("0\n1\n"));
        assert!(parts[1].starts_with("10\n"));
    }

    #[test]
    fn balanced_targets_sum_to_total() {
        let t = balanced_targets(10, 3);
        assert_eq!(t.iter().sum::<u64>(), 10);
        assert_eq!(t, vec![4, 3, 3]);
    }
}
