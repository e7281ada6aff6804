//! Seeded chunking differential for [`FrameReader`].
//!
//! One byte stream of a few hundred encoded frames — empty payloads, one
//! byte, payloads straddling a 4096-byte read, payloads at the frame cap,
//! runs of small frames that share a chunk — is fed through transports
//! that hand back 1, 3, 7 or 4097 bytes per `read`, seeded random sizes,
//! or everything at once, with `WouldBlock` injected between reads.
//! Every chunking must deliver the same payloads in the same order, and
//! the end of the stream must read the same way: `Closed` at a frame
//! boundary, `Truncated` mid-prefix or mid-payload *after* every complete
//! frame before the cut was delivered, `TooLarge` for a prefix over the
//! cap before anything is allocated for it.
//!
//! `mid_frame()` is asserted only where every correct reader agrees:
//! false once the last frame of the stream has been delivered, true once
//! part of a prefix or payload has been read and nothing complete is
//! pending. (Between two frames of one chunk a reader that reads ahead
//! already holds bytes of the next frame and one that does not holds
//! none; both are right.)

use std::io::{self, Read};

use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_server::{write_frame, FrameError, FrameReader};

/// Frame cap of the readers under test: small enough that "near the cap"
/// payloads stay cheap, larger than two 4096-byte reads.
const MAX: usize = 9000;

/// How many bytes one `read` hands back.
#[derive(Clone, Copy, Debug)]
enum Chunk {
    Fixed(usize),
    All,
    Random,
}

const CHUNKINGS: [Chunk; 6] = [
    Chunk::Fixed(1),
    Chunk::Fixed(3),
    Chunk::Fixed(7),
    Chunk::Fixed(4097),
    Chunk::All,
    Chunk::Random,
];

/// A transport over a fixed byte string that returns at most one chunk
/// per `read` and, when `stall` is set, a `WouldBlock` before each one.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: Chunk,
    stall: bool,
    stalled: bool,
    rng: StdRng,
    /// Largest buffer any `read` was offered — an allocation sized by a
    /// hostile prefix would show up here.
    largest_buf: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], chunk: Chunk, stall: bool) -> Self {
        Chunked {
            data,
            pos: 0,
            chunk,
            stall,
            stalled: false,
            rng: StdRng::seed_from_u64(0xC4A2),
            largest_buf: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest_buf = self.largest_buf.max(buf.len());
        let left = self.data.len() - self.pos;
        if left == 0 {
            return Ok(0);
        }
        if self.stall && !self.stalled {
            self.stalled = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        let step = match self.chunk {
            Chunk::Fixed(n) => n,
            Chunk::All => usize::MAX,
            Chunk::Random => self.rng.random_range(1..6000usize),
        };
        let n = step.min(left).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("encode frame");
    out
}

/// The payloads of the stream: the edge sizes first, then seeded sizes
/// skewed small so several frames land in one chunk.
fn payloads() -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut sizes = vec![0, 1, 0, 4095, 4096, 4097, MAX - 1, MAX, 2, 0, 0, 5];
    while sizes.len() < 240 {
        sizes.push(match rng.random_range(0..10u32) {
            0 => rng.random_range(4000..4200usize),
            1 => rng.random_range(MAX - 64..MAX + 1),
            _ => rng.random_range(0..48usize),
        });
    }
    sizes
        .into_iter()
        .map(|n| {
            (0..n)
                .map(|_| rng.random_range(0..256u32) as u8)
                .collect::<Vec<u8>>()
        })
        .collect()
}

/// What one reader made of one transport: the payloads in order, the
/// terminal error, and `mid_frame()` sampled at each `Ok(None)`.
struct Outcome {
    delivered: Vec<Vec<u8>>,
    end: FrameError,
    /// `(payloads delivered so far, bytes consumed, mid_frame())`.
    stalls: Vec<(usize, usize, bool)>,
    mid_frame_at_end: bool,
    largest_buf: usize,
}

fn drain(data: &[u8], chunk: Chunk, stall: bool) -> Outcome {
    let mut transport = Chunked::new(data, chunk, stall);
    let mut reader = FrameReader::new(MAX);
    let mut delivered = Vec::new();
    let mut stalls = Vec::new();
    let mut mid_frame_at_end = false;
    let mut polls = 0usize;
    let end = loop {
        polls += 1;
        assert!(polls < 4 * data.len() + 64, "reader makes no progress");
        match reader.poll(&mut transport) {
            Ok(Some(payload)) => {
                delivered.push(payload);
                mid_frame_at_end = reader.mid_frame();
            }
            Ok(None) => stalls.push((delivered.len(), transport.pos, reader.mid_frame())),
            Err(e) => break e,
        }
    };
    Outcome {
        delivered,
        end,
        stalls,
        mid_frame_at_end,
        largest_buf: transport.largest_buf,
    }
}

/// Offsets at which each frame of the stream starts, plus the end.
fn boundaries(expected: &[Vec<u8>]) -> Vec<usize> {
    let mut at = vec![0];
    for p in expected {
        at.push(at.last().expect("non-empty") + 4 + p.len());
    }
    at
}

#[test]
fn every_chunking_yields_the_same_frames() {
    let expected = payloads();
    assert!(expected.len() >= 200);
    let stream: Vec<u8> = expected.iter().flat_map(|p| frame(p)).collect();
    let bounds = boundaries(&expected);
    for chunk in CHUNKINGS {
        for stall in [false, true] {
            let out = drain(&stream, chunk, stall);
            assert_eq!(
                out.delivered.len(),
                expected.len(),
                "{chunk:?} stall={stall}"
            );
            assert!(out.delivered == expected, "{chunk:?} stall={stall}");
            assert!(
                matches!(out.end, FrameError::Closed),
                "{chunk:?} stall={stall}: EOF at a boundary is Closed, got {:?}",
                out.end
            );
            assert!(
                !out.mid_frame_at_end,
                "{chunk:?} stall={stall}: nothing is pending after the last frame"
            );
            assert_eq!(out.stalls.is_empty(), !stall);
            for (delivered, consumed, mid) in out.stalls {
                // The transport stopped strictly inside frame number
                // `delivered`: part of it was read and nothing complete
                // is waiting, so every reader must say mid-frame.
                if consumed > bounds[delivered] && consumed < bounds[delivered + 1] {
                    assert!(
                        mid,
                        "{chunk:?}: {consumed} bytes in, inside frame {delivered}"
                    );
                }
            }
        }
    }
}

#[test]
fn eof_inside_a_frame_is_truncated_after_the_complete_frames() {
    let expected: Vec<Vec<u8>> = payloads().into_iter().take(24).collect();
    let stream: Vec<u8> = expected.iter().flat_map(|p| frame(p)).collect();
    let bounds = boundaries(&expected);
    let mut rng = StdRng::seed_from_u64(7);
    // Cuts mid-prefix (1–3 bytes in) and mid-payload of frames that have
    // one, plus seeded cuts anywhere.
    let mut cuts: Vec<usize> = Vec::new();
    for (i, p) in expected.iter().enumerate() {
        cuts.extend([bounds[i] + 1, bounds[i] + 3]);
        if !p.is_empty() {
            cuts.extend([
                bounds[i] + 4,
                bounds[i] + 4 + p.len() / 2,
                bounds[i + 1] - 1,
            ]);
        }
    }
    cuts.extend((0..40).map(|_| rng.random_range(1..stream.len())));
    for cut in cuts {
        let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        let at_boundary = bounds.contains(&cut);
        for chunk in CHUNKINGS {
            let out = drain(&stream[..cut], chunk, true);
            assert!(
                out.delivered == expected[..whole],
                "cut {cut} {chunk:?}: the {whole} complete frames come first"
            );
            if at_boundary {
                assert!(matches!(out.end, FrameError::Closed), "cut {cut} {chunk:?}");
            } else {
                assert!(
                    matches!(out.end, FrameError::Truncated),
                    "cut {cut} {chunk:?}: got {:?}",
                    out.end
                );
            }
        }
    }
}

#[test]
fn oversized_prefix_is_too_large_before_any_allocation() {
    let good: Vec<Vec<u8>> = vec![b"{}".to_vec(), Vec::new(), vec![7u8; 100]];
    for advertised in [MAX as u32 + 1, 1 << 20, u32::MAX] {
        let mut stream: Vec<u8> = good.iter().flat_map(|p| frame(p)).collect();
        stream.extend_from_slice(&advertised.to_be_bytes());
        stream.extend_from_slice(&[0xAB; 64]);
        for chunk in CHUNKINGS {
            for stall in [false, true] {
                let out = drain(&stream, chunk, stall);
                assert!(
                    out.delivered == good,
                    "{chunk:?}: frames before the bad one"
                );
                match out.end {
                    FrameError::TooLarge { advertised: a, max } => {
                        assert_eq!(a, u64::from(advertised));
                        assert_eq!(max, MAX);
                    }
                    other => panic!("{chunk:?}: expected TooLarge, got {other:?}"),
                }
                // No read was ever offered a buffer sized by the hostile
                // prefix: the reader's buffers stay within a small
                // multiple of the cap.
                assert!(
                    out.largest_buf <= 8 * MAX,
                    "{chunk:?}: a read was offered {} bytes",
                    out.largest_buf
                );
            }
        }
    }
}

#[test]
fn a_timeout_keeps_partial_state() {
    // One frame delivered a byte at a time with a stall before every
    // byte: the reader answers `Ok(None)` each time, never loses what it
    // has, and is mid-frame from the first byte to the last but one.
    let payload: Vec<u8> = (0..=255u8).collect();
    let stream = frame(&payload);
    let out = drain(&stream, Chunk::Fixed(1), true);
    assert!(out.delivered == [payload]);
    assert_eq!(out.stalls.len(), stream.len());
    for (delivered, consumed, mid) in out.stalls {
        assert_eq!(delivered, 0);
        assert_eq!(mid, consumed > 0, "{consumed} bytes in");
    }
    assert!(matches!(out.end, FrameError::Closed));
}
